package cpu

import (
	"fmt"
	"strings"
)

// Stats aggregates one run's performance counters.
type Stats struct {
	Cycles    uint64
	Committed uint64
	Fetched   uint64
	Renamed   uint64
	Squashed  uint64

	CondBranches    uint64 // committed conditional branches
	CondMispredicts uint64
	Indirects       uint64 // committed JALRs
	IndMispredicts  uint64

	Loads       uint64 // committed
	Stores      uint64
	LoadForward uint64 // committed loads satisfied by store forwarding

	// Transmitter restriction accounting (experiment F2).
	Transmitters           uint64 // committed transmitters (loads, div, cflush)
	RestrictedTransmitters uint64 // committed transmitters the policy ever blocked
	SpecTransmitters       uint64 // committed transmitters issued while >=1 older branch unresolved (what a conservative scheme must restrict)
	InvisibleLoads         uint64 // committed loads executed invisibly
	// PolicyWaitEvents counts Wait verdicts reached past the structural
	// issue gates: one per instruction per cycle in which it was ready,
	// passed the fence, port, unit and memory-ordering checks, and was held
	// by the policy. Cycles the core fast-forwards are credited the same
	// count as the cycle before them.
	PolicyWaitEvents uint64

	BDTAllocStalls uint64 // rename stalls because the branch table was full

	// Memory system (copied from the hierarchy at run end).
	L1IHits, L1IMisses uint64
	L1DHits, L1DMisses uint64
	L2Hits, L2Misses   uint64
}

// IPC returns committed instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Committed) / float64(s.Cycles)
}

// MispredictRate returns the conditional-branch misprediction ratio.
func (s Stats) MispredictRate() float64 {
	if s.CondBranches == 0 {
		return 0
	}
	return float64(s.CondMispredicts) / float64(s.CondBranches)
}

// RestrictedFrac returns the fraction of committed transmitters the active
// policy ever delayed.
func (s Stats) RestrictedFrac() float64 {
	if s.Transmitters == 0 {
		return 0
	}
	return float64(s.RestrictedTransmitters) / float64(s.Transmitters)
}

// SpecFrac returns the fraction of committed transmitters that were
// speculative at issue — the restriction fraction of a conservative
// (all-older-branches) scheme.
func (s Stats) SpecFrac() float64 {
	if s.Transmitters == 0 {
		return 0
	}
	return float64(s.SpecTransmitters) / float64(s.Transmitters)
}

// String renders a compact multi-line summary.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cycles=%d insts=%d ipc=%.3f\n", s.Cycles, s.Committed, s.IPC())
	fmt.Fprintf(&b, "branches=%d mispredicts=%d (%.2f%%) indirects=%d indMiss=%d\n",
		s.CondBranches, s.CondMispredicts, 100*s.MispredictRate(), s.Indirects, s.IndMispredicts)
	fmt.Fprintf(&b, "loads=%d stores=%d fwd=%d invisible=%d\n", s.Loads, s.Stores, s.LoadForward, s.InvisibleLoads)
	fmt.Fprintf(&b, "transmitters=%d restricted=%d (%.1f%%) specAtIssue=%d (%.1f%%) waitEvents=%d\n",
		s.Transmitters, s.RestrictedTransmitters, 100*s.RestrictedFrac(),
		s.SpecTransmitters, 100*s.SpecFrac(), s.PolicyWaitEvents)
	fmt.Fprintf(&b, "L1D %d/%d L2 %d/%d L1I %d/%d bdtStalls=%d squashed=%d",
		s.L1DHits, s.L1DMisses, s.L2Hits, s.L2Misses, s.L1IHits, s.L1IMisses,
		s.BDTAllocStalls, s.Squashed)
	return b.String()
}
