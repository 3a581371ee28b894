package mem

import (
	"testing"
	"testing/quick"

	"levioso/internal/isa"
)

func TestMemoryReadWriteRoundTrip(t *testing.T) {
	f := func(addrRaw uint64, val uint64, sizeSel uint8) bool {
		sizes := []int{1, 2, 4, 8}
		size := sizes[sizeSel%4]
		addr := (addrRaw % (isa.MemLimit - 8)) &^ uint64(size-1)
		m := NewMemory()
		if err := m.Write(addr, size, val); err != nil {
			return false
		}
		got, err := m.Read(addr, size)
		if err != nil {
			return false
		}
		mask := ^uint64(0)
		if size < 8 {
			mask = 1<<(8*size) - 1
		}
		return got == val&mask
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestMemoryBounds(t *testing.T) {
	m := NewMemory()
	if err := m.Write(isa.MemLimit, 8, 1); err == nil {
		t.Error("write past MemLimit succeeded")
	}
	if _, err := m.Read(isa.MemLimit-4, 8); err == nil {
		t.Error("read straddling MemLimit succeeded")
	}
	if err := m.Write(17, 8, 1); err == nil {
		t.Error("misaligned 8-byte write succeeded")
	}
}

func TestMemoryZeroDefault(t *testing.T) {
	m := NewMemory()
	v, err := m.Read(0x2000, 8)
	if err != nil || v != 0 {
		t.Errorf("fresh read = %d, %v", v, err)
	}
	if m.Pages() != 0 {
		t.Errorf("read allocated %d pages", m.Pages())
	}
}

func TestMemoryClone(t *testing.T) {
	m := NewMemory()
	m.WriteBytes(0x1000, []byte{1, 2, 3})
	c := m.Clone()
	c.Store8(0x1000, 99)
	if m.Load8(0x1000) != 1 {
		t.Error("clone aliases original")
	}
	if c.Load8(0x1001) != 2 {
		t.Error("clone missing data")
	}
}

// WriteBytes and ReadBytes move whole page-sized pieces; a span that
// straddles a page boundary and a radix-chunk boundary (and runs past
// MemLimit) must read back exactly as byte-at-a-time Store8/Load8 would.
func TestMemoryBytesStraddlePageAndChunk(t *testing.T) {
	const chunkBytes = chunkPages * pageSize
	cases := []struct {
		addr uint64
		n    int
	}{
		{chunkBytes - 5, 11},                           // last page of chunk 0 into chunk 1
		{3*chunkBytes - pageSize - 7, 2*pageSize + 20}, // four pages, one chunk edge
		{pageSize - 1, 2},                              // one page edge, no chunk edge
		{isa.MemLimit - 3, 9},                          // runs off the end of memory
		{0x4000, 0},                                    // empty
	}
	for _, tc := range cases {
		data := make([]byte, tc.n)
		for i := range data {
			data[i] = byte(i*7 + 1)
		}
		bulk, bytewise := NewMemory(), NewMemory()
		bulk.WriteBytes(tc.addr, data)
		for i, v := range data {
			bytewise.Store8(tc.addr+uint64(i), v)
		}
		if bulk.Pages() != bytewise.Pages() {
			t.Errorf("%#x+%d: WriteBytes mapped %d pages, Store8 %d", tc.addr, tc.n, bulk.Pages(), bytewise.Pages())
		}
		// Read a margin either side so neighbours are checked too.
		lo := tc.addr - 16
		got := bulk.ReadBytes(lo, tc.n+32)
		for i, g := range got {
			if w := bytewise.Load8(lo + uint64(i)); g != w {
				t.Fatalf("%#x+%d: byte %#x = %d, want %d", tc.addr, tc.n, lo+uint64(i), g, w)
			}
		}
	}
}
