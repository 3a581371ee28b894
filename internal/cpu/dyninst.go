package cpu

import (
	"levioso/internal/core"
	"levioso/internal/isa"
)

// InstState tracks a dynamic instruction's progress through the window.
type InstState uint8

const (
	StateRenamed   InstState = iota // in window, waiting for operands/policy
	StateIssued                     // sent to a functional unit this cycle
	StateExecuting                  // occupying a unit / waiting for memory
	StateDone                       // result produced
)

// DynInst is one in-flight dynamic instruction.
//
// Field order is layout: the first 64 bytes hold what every stage reads
// (age, decoded metadata, completion time and value, dependency mask,
// register indices, recycle generation and scheduling state), so the issue,
// complete and commit walks touch one cache line per instruction. Register,
// PHT and branch-slot indices are int32, which keeps the whole object at
// 168 bytes.
type DynInst struct {
	Seq uint64 // global program-order sequence number (1-based)
	// m caches the static instruction's precomputed metadata (op class,
	// operand presence, fetch behaviour); set by the core at fetch.
	m         *instMeta
	DoneCycle uint64 // cycle the result becomes available (while executing)
	Result    uint64
	// WaitMask names the BDT slots that must resolve before this
	// instruction may execute under the active policy; the core clears bits
	// as branches resolve.
	WaitMask core.Mask

	// Rename results: physical register indices, -1 when absent.
	Dst, Src1, Src2 int32
	OldDst          int32

	// gen is the recycle generation: bumped each time the object returns to
	// the core's free pool, so completion-wheel entries referencing a
	// squashed instruction can be detected as stale. It survives the
	// reset-on-reuse (m is reassigned at fetch).
	gen   uint32
	State InstState
	// Event-driven issue state (see issue() in core.go): pending counts the
	// source operands still awaiting writeback; inIQ marks the instruction's
	// issue-queue occupancy for the rename-stage capacity check. Both zero on
	// recycle.
	pending  int8
	inIQ     bool
	Squashed bool

	PC   uint64
	Inst isa.Inst

	// Fetch-time prediction state.
	PredNext uint64 // predicted next PC (fetch continued here)
	Check    *Checkpoint

	// Memory state.
	Addr    uint64   // effective address (valid once AddrReady)
	FwdFrom *DynInst // store that forwarded its data, if any

	ActualNext uint64 // resolved next PC

	// DataMask is the dependency mask of the value this instruction
	// produces (propagated through rename and forwarding).
	DataMask    core.Mask
	exposeUntil uint64 // invisible loads: cycle the commit-time exposure/validation completes

	PhtIdx int32 // PHT entry used (conditional branches)
	BrSlot int32 // Branch Dependency Table slot, -1 if none

	// waitEpoch is the core's verdictEpoch when the policy last returned
	// Wait for this instruction; while the epoch is unchanged the core
	// reuses that verdict instead of asking again (see issue()). Only
	// meaningful once EverWaited is set.
	waitEpoch uint32

	PredTaken bool // conditional branches: predicted direction
	UsedRAS   bool // JALR predicted via the return address stack
	AddrReady bool
	MemErr    bool // wrong-path access outside simulated memory
	// Secret marks the result (for stores: the data) secret-tainted. Only
	// maintained when the active policy implements SecretTainter.
	Secret      bool
	ActualTaken bool
	Mispredict  bool
	Invisible   bool // executed as an invisible load (no cache state change)
	EverWaited  bool // was ready but policy-blocked at least once (stats)
	specAtIssue bool // issued while >= 1 older branch was unresolved (stats)
}

// Checkpoint captures rename and predictor state at a control instruction,
// allowing single-cycle recovery on misprediction.
type Checkpoint struct {
	RAT  [isa.NumRegs]int32
	Pred PredCheckpoint
}

// The predicate accessors answer from the decoded metadata when the core set
// it (the hot path — one flag test, no op-table lookups); DynInsts fabricated
// outside a core fall back to the op predicates.

// IsLoad reports whether the instruction reads data memory.
func (d *DynInst) IsLoad() bool {
	if d.m != nil {
		return d.m.flags&mLoad != 0
	}
	return d.Inst.Op.IsLoad()
}

// IsStore reports whether the instruction writes data memory.
func (d *DynInst) IsStore() bool {
	if d.m != nil {
		return d.m.flags&mStore != 0
	}
	return d.Inst.Op.IsStore()
}

// IsCondBranch reports whether this is a conditional branch.
func (d *DynInst) IsCondBranch() bool {
	if d.m != nil {
		return d.m.flags&mCondBranch != 0
	}
	return d.Inst.Op.IsBranch()
}

// IsControl reports whether the instruction can redirect fetch.
func (d *DynInst) IsControl() bool {
	if d.m != nil {
		return d.m.flags&mControl != 0
	}
	return d.Inst.Op.IsControl()
}

// IsTransmitter reports whether the instruction is a transmitter op (load,
// divide, cache flush) — the class every policy gates. Policies call this on
// every Decide, so it answers from the decoded flag.
func (d *DynInst) IsTransmitter() bool {
	if d.m != nil {
		return d.m.flags&mTransmitter != 0
	}
	return d.Inst.Op.IsTransmitter()
}

// Decision is a policy's verdict on a ready-to-issue instruction.
type Decision uint8

const (
	// Proceed lets the instruction execute normally.
	Proceed Decision = iota
	// ProceedInvisible executes a load without changing cache state
	// (InvisiSpec/GhostMinion-style); the fill happens when the load becomes
	// safe. Only meaningful for loads.
	ProceedInvisible
	// Wait blocks the instruction this cycle.
	Wait
)

// Policy is a secure-speculation policy plugged into the core. The core
// calls OnRename in program order (including wrong-path instructions),
// Decide when a data-ready instruction that passed every structural issue
// gate is considered for issue, OnSlotResolved when a Branch Dependency
// Table slot resolves (so the policy clears the slot from its own tables),
// and OnSquash for every squashed instruction. Attach gives the policy
// access to the core's BDT and configuration; Reset is called at the start
// of every run.
//
// Decide contract: a Wait verdict must have no side effects, and may change
// only after the core next calls OnSlotResolved or squashes instructions
// (every squash also resolves the mispredicted branch's slot). The core
// relies on this: it asks about a waiting instruction again only after one
// of those events, and until then reuses the Wait without calling Decide.
// A Proceed or ProceedInvisible verdict is final — the instruction issues.
type Policy interface {
	Name() string
	Attach(c *Core)
	Reset()
	OnRename(d *DynInst)
	Decide(d *DynInst) Decision
	OnForward(load, store *DynInst)
	OnSlotResolved(slot int)
	OnSquash(d *DynInst)
}

// NopPolicy is the unprotected baseline: full speculative execution.
// (internal/secure re-exports it as the `unsafe` policy.)
type NopPolicy struct{}

// Name implements Policy.
func (NopPolicy) Name() string { return "unsafe" }

// Attach implements Policy.
func (NopPolicy) Attach(*Core) {}

// Reset implements Policy.
func (NopPolicy) Reset() {}

// OnRename implements Policy.
func (NopPolicy) OnRename(*DynInst) {}

// Decide implements Policy.
func (NopPolicy) Decide(*DynInst) Decision { return Proceed }

// OnForward implements Policy.
func (NopPolicy) OnForward(_, _ *DynInst) {}

// OnSlotResolved implements Policy.
func (NopPolicy) OnSlotResolved(int) {}

// OnSquash implements Policy.
func (NopPolicy) OnSquash(*DynInst) {}
