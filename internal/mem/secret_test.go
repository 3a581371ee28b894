package mem

import (
	"math/rand"
	"testing"

	"levioso/internal/isa"
)

// refSecretSet is the map-per-byte overlay SecretSet used before it moved
// onto the page table, kept as the reference the paged set must agree with.
type refSecretSet struct {
	ranges  []isa.SecretRange
	overlay map[uint64]bool
}

func (s *refSecretSet) Secret(addr uint64, size int) bool {
	for i := 0; i < size; i++ {
		b := addr + uint64(i)
		if sec, ok := s.overlay[b]; ok {
			if sec {
				return true
			}
			continue
		}
		for _, r := range s.ranges {
			if r.Contains(b, 1) {
				return true
			}
		}
	}
	return false
}

func (s *refSecretSet) MarkStored(addr uint64, size int, secret bool) {
	for i := 0; i < size; i++ {
		s.overlay[addr+uint64(i)] = secret
	}
}

func TestSecretSetStaticRanges(t *testing.T) {
	s := NewSecretSet([]isa.SecretRange{{Base: 0x1000, Len: 16}})
	for _, c := range []struct {
		addr uint64
		size int
		want bool
	}{
		{0x0ff8, 8, false}, {0x0ff9, 8, true}, {0x1000, 1, true},
		{0x1008, 8, true}, {0x100f, 1, true}, {0x1010, 8, false},
	} {
		if got := s.Secret(c.addr, c.size); got != c.want {
			t.Errorf("Secret(%#x, %d) = %v, want %v", c.addr, c.size, got, c.want)
		}
	}
}

func TestSecretSetStoresReclassify(t *testing.T) {
	s := NewSecretSet([]isa.SecretRange{{Base: 0x1000, Len: 16}})
	// A public store declassifies exactly the bytes it wrote.
	s.MarkStored(0x1000, 8, false)
	if s.Secret(0x1000, 8) {
		t.Error("public store did not declassify a static-range word")
	}
	if !s.Secret(0x1008, 8) {
		t.Error("public store declassified bytes it did not write")
	}
	if !s.Secret(0x1004, 8) {
		t.Error("an access overlapping one still-secret byte must be secret")
	}
	// A secret store reclassifies them, and can classify public memory.
	s.MarkStored(0x1002, 2, true)
	if !s.Secret(0x1000, 8) || s.Secret(0x1000, 2) || s.Secret(0x1004, 4) {
		t.Error("secret store did not reclassify exactly its two bytes")
	}
	s.MarkStored(0x5000, 4, true)
	if !s.Secret(0x5003, 1) || s.Secret(0x5004, 4) {
		t.Error("secret store to public memory classified the wrong bytes")
	}
}

func TestSecretSetPageStraddle(t *testing.T) {
	s := NewSecretSet(nil)
	edge := uint64(3 * pageSize)
	s.MarkStored(edge-2, 4, true) // two bytes on each page
	if !s.Secret(edge-4, 3) || !s.Secret(edge+1, 1) || s.Secret(edge+2, 8) || s.Secret(edge-8, 6) {
		t.Error("store straddling a page boundary marked the wrong bytes")
	}
	s.MarkStored(edge-1, 2, false)
	if !s.Secret(edge-2, 1) || s.Secret(edge-1, 2) || !s.Secret(edge+1, 1) {
		t.Error("declassifying across the boundary marked the wrong bytes")
	}
}

func TestSecretSetReset(t *testing.T) {
	s := NewSecretSet([]isa.SecretRange{{Base: 0x2000, Len: 8}})
	s.MarkStored(0x2000, 8, false)
	s.MarkStored(0x3000, 8, true)
	s.Reset()
	if !s.Secret(0x2000, 8) {
		t.Error("Reset kept a declassification")
	}
	if s.Secret(0x3000, 8) {
		t.Error("Reset kept a dynamic secret")
	}
}

func TestSecretSetMemLimit(t *testing.T) {
	top := isa.MemLimit - 1
	s := NewSecretSet([]isa.SecretRange{{Base: top - 7, Len: 8}})
	if !s.Secret(top, 1) || !s.Secret(top-7, 8) {
		t.Error("static range ending at the memory limit not secret")
	}
	s.MarkStored(top, 1, false)
	if s.Secret(top, 1) || !s.Secret(top-1, 1) {
		t.Error("public store to the last byte did not declassify exactly it")
	}
	// A store running past the limit keeps the in-range byte and drops the
	// rest: there is no memory beyond the limit to be secret.
	s.MarkStored(top, 2, true)
	if !s.Secret(top, 1) || s.Secret(top+1, 1) {
		t.Error("store across the memory limit marked the wrong bytes")
	}
}

// TestSecretSetMatchesMapOverlay drives the paged set and the map-based
// reference with the same random stores and queries over a few pages around
// two static ranges (one crossing a page boundary) and the memory limit.
func TestSecretSetMatchesMapOverlay(t *testing.T) {
	ranges := []isa.SecretRange{{Base: 0x1ff0, Len: 0x30}, {Base: 0x4100, Len: 0x20}}
	s := NewSecretSet(ranges)
	ref := &refSecretSet{ranges: ranges, overlay: make(map[uint64]bool)}
	rng := rand.New(rand.NewSource(1))
	bases := []uint64{0x1000, 0x4000, isa.MemLimit - 3*pageSize}
	sizes := []int{1, 2, 4, 8}
	for i := 0; i < 200_000; i++ {
		addr := bases[rng.Intn(len(bases))] + uint64(rng.Intn(3*pageSize))
		size := sizes[rng.Intn(len(sizes))]
		if addr+uint64(size) > isa.MemLimit {
			addr = isa.MemLimit - uint64(size) // the reference has no limit
		}
		switch op := rng.Intn(10); {
		case op < 3:
			sec := rng.Intn(2) == 0
			s.MarkStored(addr, size, sec)
			ref.MarkStored(addr, size, sec)
		case op == 3 && rng.Intn(500) == 0:
			s.Reset()
			clear(ref.overlay)
		default:
			if got, want := s.Secret(addr, size), ref.Secret(addr, size); got != want {
				t.Fatalf("op %d: Secret(%#x, %d) = %v, reference says %v", i, addr, size, got, want)
			}
		}
	}
}
