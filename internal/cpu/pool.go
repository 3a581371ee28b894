package cpu

import (
	"fmt"

	"levioso/internal/isa"
)

// Core-owned free lists for the two objects the front end used to heap-
// allocate per dynamic instruction: DynInst and Checkpoint. The core is
// single-threaded, so a plain slice stack beats sync.Pool (no per-P caches,
// no GC clearing, deterministic reuse). Objects are reset on reuse, not on
// free, so the squash path stays cheap; the recycle generation counter lets
// the completion wheel detect stale references without the squash path ever
// touching the wheel.

// newDynInst returns a reset instruction object for fetch, reusing a
// recycled one when available.
func (c *Core) newDynInst(seq, pc uint64, m *instMeta) *DynInst {
	var d *DynInst
	if n := len(c.instPool); n > 0 {
		d = c.instPool[n-1]
		c.instPool = c.instPool[:n-1]
		gen := d.gen
		*d = DynInst{gen: gen}
	} else {
		d = &DynInst{}
		c.instAllocd++
	}
	d.Seq = seq
	d.PC = pc
	d.Inst = m.inst
	d.m = m
	d.BrSlot = -1
	return d
}

// freeInst recycles a retired or squashed instruction. The caller guarantees
// no live pipeline structure still reads through the pointer (dangling
// identity-only references like a younger load's FwdFrom are fine: they are
// only ever compared against nil).
func (c *Core) freeInst(d *DynInst) {
	d.gen++
	if d.Check != nil {
		c.freeCheck(d.Check)
		d.Check = nil
	}
	c.instPool = append(c.instPool, d)
}

// newCheckpoint returns a checkpoint for a control instruction. Contents are
// overwritten by CheckpointInto and the rename stage, so no reset is needed;
// the recycled RAS buffer is reused in place.
func (c *Core) newCheckpoint() *Checkpoint {
	if n := len(c.checkPool); n > 0 {
		ck := c.checkPool[n-1]
		c.checkPool = c.checkPool[:n-1]
		return ck
	}
	c.checkAllocd++
	return new(Checkpoint)
}

func (c *Core) freeCheck(ck *Checkpoint) {
	c.checkPool = append(c.checkPool, ck)
}

// CheckInvariants audits the core's recovery-sensitive internal state: the
// physical-register accounting, the program-order queues, the fence/divider
// bookkeeping, and the free pools. It exists for tests — in particular the
// mispredict-storm recovery tests — and for the fuzzer, which runs it after
// every direct run, so it allocates only to format a violation (its scratch
// is core-owned and survives recycling). It returns nil when every invariant
// holds, and may be called at any cycle boundary (between Steps) or after a
// run completes.
func (c *Core) CheckInvariants() error {
	// --- physical register accounting -----------------------------------
	// Every physical register is exactly one of: an architectural mapping
	// (commitRT image), a live in-flight destination, or free. OldDst values
	// alias one of the first two until their instruction commits.
	owner := zeroed(c.invOwner, c.cfg.NumPhysRegs)
	c.invOwner = owner
	live := c.rob[c.robHead:]
	for r := 0; r < isa.NumRegs; r++ {
		if err := c.claim(owner, c.commitRT[r], ownArch+int32(r)); err != nil {
			return err
		}
	}
	for i, d := range live {
		if d.Dst >= 0 {
			if err := c.claim(owner, d.Dst, ownLive+int32(i)); err != nil {
				return err
			}
		}
	}
	for _, p := range c.freeList {
		if err := c.claim(owner, p, ownFree); err != nil {
			return err
		}
	}
	for p, who := range owner {
		if who == ownNone {
			return fmt.Errorf("cpu: invariant: phys reg %d leaked (not architectural, live, or free)", p)
		}
	}
	// The speculative rename map must point at architectural or live
	// destinations, never at a free register.
	for r := 0; r < isa.NumRegs; r++ {
		p := c.rat[r]
		if p < 0 || int(p) >= len(owner) {
			return fmt.Errorf("cpu: invariant: rat[%s] = %d out of range", isa.Reg(r), p)
		}
		if owner[p] == ownFree {
			return fmt.Errorf("cpu: invariant: rat[%s] = %d points at a free register", isa.Reg(r), p)
		}
	}

	// --- window order ----------------------------------------------------
	for i := 1; i < len(live); i++ {
		if live[i].Seq <= live[i-1].Seq {
			return fmt.Errorf("cpu: invariant: rob order violated at seq %d", live[i].Seq)
		}
	}
	for _, d := range live {
		if d.Squashed {
			return fmt.Errorf("cpu: invariant: squashed seq %d still in window", d.Seq)
		}
	}

	// --- fence queue ------------------------------------------------------
	// Every in-flight fence seq must name a live FENCE/HALT, in ascending
	// program order.
	for i, seq := range c.fenceSeqs {
		if i > 0 && seq <= c.fenceSeqs[i-1] {
			return fmt.Errorf("cpu: invariant: fence queue out of order at %d", seq)
		}
		found := false
		for _, d := range live {
			if d.Seq == seq {
				found = d.m != nil && d.m.flags&mFenceHalt != 0
				break
			}
		}
		if !found {
			return fmt.Errorf("cpu: invariant: fence queue seq %d has no live FENCE/HALT", seq)
		}
	}

	// --- divider ----------------------------------------------------------
	// A busy divider must be owned by a live, executing divide; a squashed
	// owner must have released it (the recovery bugfix this guards).
	if c.divBusyUntil > c.cycle {
		ok := false
		for _, d := range live {
			if d.Seq == c.divBusySeq && d.m != nil && d.m.class == isa.ClassDiv && d.State == StateExecuting {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("cpu: invariant: divider busy until cycle %d but owner seq %d is not a live executing divide",
				c.divBusyUntil, c.divBusySeq)
		}
	}

	// --- fetch line -------------------------------------------------------
	if lb := uint64(c.cfg.Hier.L1I.LineBytes); c.lastFetchLine != ^uint64(0) &&
		c.lastFetchLine > (c.prog.TextEnd()-1)/lb {
		return fmt.Errorf("cpu: invariant: lastFetchLine %#x beyond text segment", c.lastFetchLine)
	}

	// --- pools ------------------------------------------------------------
	// No pooled object may still be reachable from a live structure, and the
	// pool must not hold duplicates.
	if c.pooledInst == nil {
		c.pooledInst = make(map[*DynInst]bool, len(c.instPool))
	}
	pooled := c.pooledInst
	clear(pooled)
	for _, d := range c.instPool {
		if pooled[d] {
			return fmt.Errorf("cpu: invariant: DynInst pooled twice")
		}
		pooled[d] = true
	}
	for _, d := range live {
		if pooled[d] {
			return fmt.Errorf("cpu: invariant: live seq %d is in the free pool", d.Seq)
		}
	}
	for _, d := range c.readyQ {
		if pooled[d] {
			return fmt.Errorf("cpu: invariant: pooled DynInst in ready queue")
		}
	}
	// Issue-queue occupancy is counter-tracked; it must agree with the
	// per-instruction flags of the live window.
	inIQ := 0
	for _, d := range live {
		if d.inIQ {
			inIQ++
		}
	}
	if inIQ != c.iqCount {
		return fmt.Errorf("cpu: invariant: issue-queue occupancy %d but %d live instructions hold entries",
			c.iqCount, inIQ)
	}
	for _, d := range c.fetchBuf[c.fbHead:] {
		if pooled[d] {
			return fmt.Errorf("cpu: invariant: pooled DynInst in fetch buffer")
		}
	}
	for _, d := range c.lq[c.lqHead:] {
		if pooled[d] {
			return fmt.Errorf("cpu: invariant: pooled DynInst in load queue")
		}
	}
	for _, d := range c.sq[c.sqHead:] {
		if pooled[d] {
			return fmt.Errorf("cpu: invariant: pooled DynInst in store queue")
		}
	}
	if len(c.instPool) > c.instAllocd {
		return fmt.Errorf("cpu: invariant: %d pooled DynInsts exceed %d ever allocated",
			len(c.instPool), c.instAllocd)
	}
	if c.pooledCheck == nil {
		c.pooledCheck = make(map[*Checkpoint]bool, len(c.checkPool))
	}
	ckPooled := c.pooledCheck
	clear(ckPooled)
	for _, ck := range c.checkPool {
		if ckPooled[ck] {
			return fmt.Errorf("cpu: invariant: Checkpoint pooled twice")
		}
		ckPooled[ck] = true
	}
	for _, d := range live {
		if d.Check != nil && ckPooled[d.Check] {
			return fmt.Errorf("cpu: invariant: live seq %d holds a pooled Checkpoint", d.Seq)
		}
	}
	if len(c.checkPool) > c.checkAllocd {
		return fmt.Errorf("cpu: invariant: %d pooled Checkpoints exceed %d ever allocated",
			len(c.checkPool), c.checkAllocd)
	}
	return nil
}

// Register-owner codes in CheckInvariants' owner table: unclaimed, free, an
// architectural mapping (ownArch + register), or a live destination (ownLive
// + position in the window). Codes, not names, so a passing audit formats
// nothing.
const (
	ownNone int32 = iota
	ownFree
	ownArch
	ownLive = ownArch + isa.NumRegs
)

// claim records who as the owner of physical register p, failing if p is
// out of range or already owned.
func (c *Core) claim(owner []int32, p, who int32) error {
	if p < 0 || int(p) >= len(owner) {
		return fmt.Errorf("cpu: invariant: %s claims out-of-range phys reg %d", c.ownerName(who), p)
	}
	if owner[p] != ownNone {
		return fmt.Errorf("cpu: invariant: phys reg %d claimed by both %s and %s", p, c.ownerName(owner[p]), c.ownerName(who))
	}
	owner[p] = who
	return nil
}

// ownerName renders an owner code for an invariant message.
func (c *Core) ownerName(who int32) string {
	switch {
	case who == ownFree:
		return "freeList"
	case who < ownLive:
		return fmt.Sprintf("commitRT[%s]", isa.Reg(who-ownArch))
	default:
		return fmt.Sprintf("seq %d dst", c.rob[c.robHead+int(who-ownLive)].Seq)
	}
}
