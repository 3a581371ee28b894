package core

import (
	"math/bits"

	"levioso/internal/isa"
)

// NumSlots is the capacity of the Branch Dependency Table: the maximum number
// of in-flight (unresolved) conditional branches tracked precisely. The
// rename stage stalls when all slots are busy, which the paper's design sizes
// to be rare (a 192-entry ROB almost never holds 64 unresolved branches).
const NumSlots = 64

// Mask is a bitset over Branch Dependency Table slots. An instruction's
// dependency mask names the in-flight branches it must wait for (under a
// given policy) before it may expose its execution to the memory system.
type Mask uint64

// Has reports whether slot s is in the mask.
func (m Mask) Has(s int) bool { return m&(1<<uint(s)) != 0 }

// With returns m with slot s added.
func (m Mask) With(s int) Mask { return m | 1<<uint(s) }

// Without returns m with slot s removed.
func (m Mask) Without(s int) Mask { return m &^ (1 << uint(s)) }

// Count returns the number of slots in the mask.
func (m Mask) Count() int { return bits.OnesCount64(uint64(m)) }

// slot holds per-in-flight-branch state.
type slot struct {
	busy     bool
	seq      uint64 // global sequence number of the branch instruction
	pc       uint64
	reconvPC uint64 // 0: no annotation, region never closes
	writeSet isa.RegMask
	open     bool // control region still open at the rename point
	// openSnap is the table's open-mask as of this branch's rename,
	// used to restore region state on misprediction recovery.
	openSnap Mask
}

// BranchTable is the Levioso Branch Dependency Table. The rename stage
// drives it in program order (speculatively — wrong-path instructions pass
// through it too and their effects are undone by Squash):
//
//  1. For every instruction, CloseRegions(pc) first closes the control
//     region of any open branch whose annotated reconvergence point is pc.
//  2. OpenMask() then gives the set of branches the instruction is
//     control-dependent on.
//  3. Conditional branches additionally call Alloc to claim a slot.
//
// Resolution and recovery: Resolve frees a slot when its branch executes
// correctly; Squash(seq) frees every slot younger than seq and restores the
// open-region state captured when the surviving branch was renamed.
type BranchTable struct {
	prog       *isa.Program
	slots      [NumSlots]slot
	unresolved Mask
	open       Mask
	// live mirrors the busy bits of slots, maintained incrementally so the
	// rename-path capacity check (InFlight) and slot allocation never scan
	// the table.
	live Mask
	// AllocFailures counts rename stalls due to a full table (experiment F2
	// reports how often the capacity fallback engages).
	AllocFailures uint64
}

// NewBranchTable returns a table that reads annotations from prog.
func NewBranchTable(prog *isa.Program) *BranchTable {
	return &BranchTable{prog: prog}
}

// Reset clears all state and makes the table read annotations from prog,
// leaving it as NewBranchTable(prog) would build it.
func (t *BranchTable) Reset(prog *isa.Program) {
	*t = BranchTable{prog: prog}
}

// CloseRegions must be called once per instruction, in rename order, with the
// instruction's PC before any other query for that instruction. Reaching a
// branch's reconvergence point proves control independence for everything
// younger, so the branch's region closes.
func (t *BranchTable) CloseRegions(pc uint64) {
	if t.open == 0 {
		return
	}
	for m := t.open; m != 0; {
		s := bits.TrailingZeros64(uint64(m))
		m = m.Without(s)
		if t.slots[s].reconvPC != 0 && t.slots[s].reconvPC == pc {
			t.slots[s].open = false
			t.open = t.open.Without(s)
		}
	}
}

// OpenMask returns the set of branches whose control regions are open at the
// current rename point: the control-dependency mask for the next instruction.
func (t *BranchTable) OpenMask() Mask { return t.open }

// UnresolvedMask returns the set of allocated, unresolved branches. This is
// the conservative "all older branches" mask used by the fence/delay/taint
// baseline policies.
func (t *BranchTable) Unresolved() Mask { return t.unresolved }

// Alloc claims a slot for a conditional branch with global sequence number
// seq at pc. It returns the slot index, or ok=false when the table is full
// (the caller must stall rename). The annotation is looked up in the program
// image; unannotated branches get a never-closing region.
func (t *BranchTable) Alloc(seq, pc uint64) (int, bool) {
	return t.AllocHinted(seq, pc, t.prog.Hints[pc]) // zero value = conservative
}

// AllocHinted is Alloc with the branch's annotation already resolved — the
// cpu's decoded-metadata cache prefetches hints at program load, so the
// per-dynamic-branch map lookup disappears from the rename path.
func (t *BranchTable) AllocHinted(seq, pc uint64, h isa.BranchHint) (int, bool) {
	free := ^t.live
	if free == 0 {
		t.AllocFailures++
		return 0, false
	}
	s := bits.TrailingZeros64(uint64(free))
	t.slots[s] = slot{
		busy:     true,
		seq:      seq,
		pc:       pc,
		reconvPC: h.ReconvPC,
		writeSet: h.WriteSet,
		open:     true,
		openSnap: t.open,
	}
	t.unresolved = t.unresolved.With(s)
	t.open = t.open.With(s)
	t.live = t.live.With(s)
	return s, true
}

// Resolve marks the branch in slot s resolved and frees the slot. The caller
// clears the slot's bit from any dependency masks it holds (the CPU walks the
// window; policies walk their register tables).
func (t *BranchTable) Resolve(s int) {
	if !t.slots[s].busy {
		return
	}
	t.slots[s] = slot{}
	t.unresolved = t.unresolved.Without(s)
	t.open = t.open.Without(s)
	t.live = t.live.Without(s)
}

// Squash frees every slot belonging to a branch younger than seq (exclusive)
// and restores the open-region state to what it was when the branch with
// sequence number seq was renamed: openSnap masked by the branches still
// unresolved (a region must not reopen for a branch that resolved while the
// squashing branch was in flight).
//
// Pass the sequence number and slot of the mispredicted branch; its own
// region state is also restored (its region reopens conceptually, but the
// branch is resolved immediately after, so the caller follows with Resolve).
func (t *BranchTable) Squash(seq uint64, slotIdx int) {
	for m := t.live; m != 0; {
		i := bits.TrailingZeros64(uint64(m))
		m = m.Without(i)
		if t.slots[i].seq > seq {
			t.slots[i] = slot{}
			t.unresolved = t.unresolved.Without(i)
			t.open = t.open.Without(i)
			t.live = t.live.Without(i)
		}
	}
	if t.slots[slotIdx].busy && t.slots[slotIdx].seq == seq {
		// Open regions as of the mispredicted branch's rename, restricted to
		// branches still in flight, plus the branch itself (resolved next).
		t.open = (t.slots[slotIdx].openSnap & t.unresolved).With(slotIdx)
	}
}

// SquashAll frees every slot (full pipeline flush).
func (t *BranchTable) SquashAll() {
	for i := range t.slots {
		t.slots[i] = slot{}
	}
	t.unresolved = 0
	t.open = 0
	t.live = 0
}

// WriteSet returns the annotated region write set of the branch in slot s.
func (t *BranchTable) WriteSet(s int) isa.RegMask { return t.slots[s].writeSet }

// SlotSeq returns the sequence number of the branch in slot s (0 if free).
func (t *BranchTable) SlotSeq(s int) uint64 { return t.slots[s].seq }

// InFlight returns the number of busy slots.
func (t *BranchTable) InFlight() int { return t.live.Count() }
