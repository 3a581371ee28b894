package mem

import "levioso/internal/isa"

// Byte marks in the committed-store overlay. Zero is "never stored", so an
// unallocated overlay page reads as unmarked.
const (
	markNone   byte = iota // fall back to the static ranges
	markPublic             // last committed store carried public data
	markSecret             // last committed store carried secret data
)

// SecretSet answers "does this access touch secret-typed data?" for
// ProSpeCT-style policies. It combines the program's static secret ranges
// with a dynamic per-byte overlay fed by committed stores: storing a
// secret-tainted value classifies the destination bytes, storing a public
// value declassifies them (overwrite-to-declassify), exactly the
// memory-typing discipline of Daniel et al.'s ProSpeCT. Bytes never stored
// to fall back to the static ranges.
//
// The overlay holds one mark byte per address in the same radix page table
// as Memory, so a lookup is two indexed loads and the pages a program stores
// to are allocated once. Like Memory, it covers [0, isa.MemLimit): a mark
// beyond the limit is dropped, and such bytes are never secret (no static
// range reaches them either).
type SecretSet struct {
	ranges []isa.SecretRange
	marks  Memory // committed-store byte marks; override ranges
}

// NewSecretSet builds a set over the program's declared ranges. The slice is
// not copied; callers treat Program.Secrets as immutable after load.
func NewSecretSet(ranges []isa.SecretRange) *SecretSet {
	return &SecretSet{ranges: ranges}
}

// Secret reports whether any byte of [addr, addr+size) is secret-typed.
func (s *SecretSet) Secret(addr uint64, size int) bool {
	for i := 0; i < size; i++ {
		b := addr + uint64(i)
		switch s.marks.Load8(b) {
		case markSecret:
			return true
		case markPublic:
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

// MarkStored records a committed store of size bytes at addr carrying
// secret-tainted (or public) data, updating the dynamic overlay.
func (s *SecretSet) MarkStored(addr uint64, size int, secret bool) {
	mark := markPublic
	if secret {
		mark = markSecret
	}
	for i := 0; i < size; i++ {
		s.marks.Store8(addr+uint64(i), mark)
	}
}

// Reset drops the dynamic overlay, returning to the static typing.
func (s *SecretSet) Reset() {
	s.marks = Memory{}
}
