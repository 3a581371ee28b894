package mem

import (
	"encoding/binary"
	"fmt"

	"levioso/internal/isa"
)

const (
	pageShift = 12
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
	// The page table covering [0, isa.MemLimit) is a two-level radix tree:
	// a fixed root of chunk pointers with 1 MiB leaf chunks allocated on
	// demand. Translation is two indexed loads — no hashing on the
	// simulator's hottest data lookup — while an empty memory costs only
	// the root array.
	numPages   = int(isa.MemLimit >> pageShift)
	chunkShift = 8 // pages per chunk: 256 pages = 1 MiB of address space
	chunkPages = 1 << chunkShift
	chunkMask  = chunkPages - 1
	numChunks  = numPages / chunkPages
)

type pageChunk [chunkPages]*[pageSize]byte

// Memory is a sparse, page-backed, little-endian byte-addressable memory.
// It bounds addresses to isa.MemLimit so a wild pointer in a guest program
// fails fast instead of allocating unbounded pages.
type Memory struct {
	chunks    [numChunks]*pageChunk
	allocated int
}

// NewMemory returns an empty memory.
func NewMemory() *Memory {
	return &Memory{}
}

func (m *Memory) lookup(pn uint64) *[pageSize]byte {
	if pn >= uint64(numPages) {
		return nil
	}
	ch := m.chunks[pn>>chunkShift]
	if ch == nil {
		return nil
	}
	return ch[pn&chunkMask]
}

func (m *Memory) page(addr uint64, alloc bool) *[pageSize]byte {
	pn := addr >> pageShift
	if pn >= uint64(numPages) {
		return nil // beyond MemLimit: never mapped
	}
	ch := m.chunks[pn>>chunkShift]
	if ch == nil {
		if !alloc {
			return nil
		}
		ch = new(pageChunk)
		m.chunks[pn>>chunkShift] = ch
	}
	p := ch[pn&chunkMask]
	if p == nil && alloc {
		p = new([pageSize]byte)
		ch[pn&chunkMask] = p
		m.allocated++
	}
	return p
}

func (m *Memory) check(addr uint64, size int) error {
	if addr >= isa.MemLimit || addr+uint64(size) > isa.MemLimit {
		return fmt.Errorf("memory access %#x size %d out of bounds", addr, size)
	}
	if size != 1 && addr%uint64(size) != 0 {
		return fmt.Errorf("misaligned %d-byte access at %#x", size, addr)
	}
	return nil
}

// Read returns the little-endian value of size bytes at addr (1, 2, 4 or 8).
func (m *Memory) Read(addr uint64, size int) (uint64, error) {
	if err := m.check(addr, size); err != nil {
		return 0, err
	}
	// A checked access is aligned, so it never straddles a page.
	p := m.lookup(addr >> pageShift)
	if p == nil {
		return 0, nil
	}
	off := addr & pageMask
	switch size {
	case 8:
		return binary.LittleEndian.Uint64(p[off:]), nil
	case 4:
		return uint64(binary.LittleEndian.Uint32(p[off:])), nil
	case 2:
		return uint64(binary.LittleEndian.Uint16(p[off:])), nil
	default:
		return uint64(p[off]), nil
	}
}

// Write stores the low size bytes of val at addr little-endian.
func (m *Memory) Write(addr uint64, size int, val uint64) error {
	if err := m.check(addr, size); err != nil {
		return err
	}
	p := m.page(addr, true)
	off := addr & pageMask
	switch size {
	case 8:
		binary.LittleEndian.PutUint64(p[off:], val)
	case 4:
		binary.LittleEndian.PutUint32(p[off:], uint32(val))
	case 2:
		binary.LittleEndian.PutUint16(p[off:], uint16(val))
	default:
		p[off] = byte(val)
	}
	return nil
}

// Load8 returns the byte at addr (zero if the page was never written or addr
// is outside simulated memory).
func (m *Memory) Load8(addr uint64) byte {
	p := m.page(addr, false)
	if p == nil {
		return 0
	}
	return p[addr&pageMask]
}

// Store8 stores one byte at addr; stores beyond isa.MemLimit are dropped
// (checked access paths never get here — this matches Load8 reading the
// out-of-bounds region as zero).
func (m *Memory) Store8(addr uint64, b byte) {
	if p := m.page(addr, true); p != nil {
		p[addr&pageMask] = b
	}
}

// WriteBytes copies b to memory starting at addr, one page-sized piece at a
// time; bytes beyond isa.MemLimit are dropped, as Store8 drops them.
func (m *Memory) WriteBytes(addr uint64, b []byte) {
	for len(b) > 0 {
		off := addr & pageMask
		n := min(len(b), int(pageSize-off))
		if p := m.page(addr, true); p != nil {
			copy(p[off:], b[:n])
		}
		addr += uint64(n)
		b = b[n:]
	}
}

// ReadBytes copies n bytes starting at addr into a new slice, one page-sized
// piece at a time; unwritten bytes read as zero, as Load8 reads them.
func (m *Memory) ReadBytes(addr uint64, n int) []byte {
	out := make([]byte, n)
	for b := out; len(b) > 0; {
		off := addr & pageMask
		k := min(len(b), int(pageSize-off))
		if p := m.page(addr, false); p != nil {
			copy(b[:k], p[off:])
		}
		addr += uint64(k)
		b = b[k:]
	}
	return out
}

// Clone returns a deep copy of the memory (used by cosimulation to fork a
// reference machine from an initial state).
func (m *Memory) Clone() *Memory {
	c := NewMemory()
	for ci, ch := range m.chunks {
		if ch == nil {
			continue
		}
		cch := new(pageChunk)
		for pi, p := range ch {
			if p == nil {
				continue
			}
			cp := new([pageSize]byte)
			*cp = *p
			cch[pi] = cp
		}
		c.chunks[ci] = cch
	}
	c.allocated = m.allocated
	return c
}

// Pages returns the number of allocated pages (test introspection).
func (m *Memory) Pages() int { return m.allocated }
