package cpu

import (
	"context"
	"fmt"
	"math/bits"
	"strconv"
	"sync"

	"levioso/internal/core"
	"levioso/internal/isa"
	"levioso/internal/mem"
	"levioso/internal/simerr"
)

// Result summarizes a completed run.
type Result struct {
	ExitCode uint64
	Output   string
	Stats    Stats
}

// Core is one out-of-order LEV64 core.
type Core struct {
	cfg    Config
	prog   *isa.Program
	policy Policy

	// meta is the decoded-instruction cache: one entry per static
	// instruction, indexed by text position (see meta.go).
	meta []instMeta

	BT   *core.BranchTable
	Hier MemSystem
	Phys *mem.Memory
	Pred BranchPredictor

	// Physical register file.
	regVal   []uint64
	regReady []bool
	rat      [isa.NumRegs]int32 // speculative rename map
	commitRT [isa.NumRegs]int32 // architectural (retirement) map
	freeList []int32

	// Windows. rob/lq/sq are program-order queues with a moving head.
	rob     []*DynInst
	robHead int
	lq      []*DynInst
	lqHead  int
	sq      []*DynInst
	sqHead  int

	// Event-driven issue scheduling (see issue()). readyQ holds the
	// operand-ready, not-yet-issued instructions in age (Seq) order — the
	// only candidates the issue stage examines. waiters parks each queued
	// instruction on the physical registers it still needs; the writeback
	// path wakes the list instead of the issue stage rescanning the whole
	// queue every cycle. iqCount tracks issue-queue occupancy for rename's
	// capacity check; an issued instruction vacates its entry at the *next*
	// cycle's issue stage (via iqFreed), reproducing the drop timing of the
	// scan-based queue this design replaces.
	readyQ  []*DynInst
	waiters [][]waiter
	iqCount int
	iqFreed []waiter

	fetchBuf []*DynInst
	fbHead   int

	// Completion wheel (see wheel.go): executing instructions bucketed by
	// DoneCycle, so the complete stage touches only the instructions
	// finishing this cycle instead of scanning the window. bucketBits marks
	// the nonempty buckets so the idle fast-forward (see idleSkip) can find
	// the next completion event without walking the wheel.
	wheel      [wheelSize][]wheelEntry
	bucketBits [wheelSize / 64]uint64
	dueBuf     []*DynInst

	// active records whether the current cycle changed any simulation state
	// (committed, completed, issued, renamed, fetched, or bumped a stall
	// counter). A cycle that did none of those is provably a pure wait —
	// identical state next cycle — so Run jumps the cycle counter straight
	// to the next timed event instead of replaying no-ops. waits counts the
	// cycle's policy Wait verdicts: they change nothing the next cycle would
	// see, so they do not make it active, and each skipped cycle is credited
	// the same count (see idleSkip).
	active bool
	waits  uint64

	// verdictEpoch advances whenever a policy's Wait verdict may change:
	// at every resolved branch slot, which every squash includes (see the
	// Decide contract on Policy). A waiting instruction whose waitEpoch
	// still matches is not asked again.
	verdictEpoch uint32

	// Free pools (see pool.go): recycled DynInst/Checkpoint objects so the
	// steady-state fetch path performs no heap allocation. The slabs back
	// them, so init can rebuild full pools for a recycled core.
	instPool    []*DynInst
	checkPool   []*Checkpoint
	instAllocd  int
	checkAllocd int
	instSlab    []DynInst
	checkSlab   []Checkpoint

	// hier and pred are the memory system and predictor under any
	// Config.WrapMem/WrapPred wrapper; a recycled core resets them in place.
	hier *mem.Hierarchy
	pred *Predictor

	// Scratch for CheckInvariants (see pool.go), kept so the audit
	// allocates nothing when every check passes.
	invOwner    []int32
	pooledInst  map[*DynInst]bool
	pooledCheck map[*Checkpoint]bool

	fetchPC         uint64
	fetchStallUntil uint64
	fetchHalted     bool
	lastFetchLine   uint64 // last I-cache line touched (avoid per-inst lookups)
	lineShift       uint   // log2(L1I line bytes): fetch-line math is a shift

	// nop is true when the attached policy is the NopPolicy baseline: every
	// policy hook is a no-op and no instruction ever carries a dependency
	// mask, so the hot loop skips the interface calls and the resolved-slot
	// mask-clearing walk entirely.
	nop bool
	// bdtCap is the resolved Branch Dependency Table capacity (Config
	// default applied once, not per renamed branch).
	bdtCap int

	// sec is the secret-taint state, allocated only when the policy
	// implements SecretTainter (see secret.go); nil otherwise.
	sec *secretState

	// cov is the attached coverage sink (Config.Coverage); nil for normal
	// runs, so every hook site costs one predictable branch.
	cov *CoverageSink

	fenceSeqs []uint64 // in-flight FENCE/HALT sequence numbers, program order

	divBusyUntil uint64
	divBusySeq   uint64 // Seq of the divide occupying the divider (0 = none)

	cycle uint64
	seq   uint64

	out      []byte
	halted   bool
	exitCode uint64

	stats           Stats
	lastCommitCycle uint64
}

// corePool holds released cores whose buffers New reuses (see Release).
var corePool = sync.Pool{New: func() any { return new(Core) }}

// New builds a core with prog loaded, memory initialized, and the policy
// attached. Pass NopPolicy{} for an unprotected core.
//
// New reuses the buffers of a core handed back with Release when one is
// available; a recycled core starts the run in exactly the state a newly
// built one would. prog must not be modified after New: a recycled core keeps
// its decoded-metadata table when the same *isa.Program comes back.
func New(prog *isa.Program, cfg Config, pol Policy) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := corePool.Get().(*Core)
	if err := c.init(prog, cfg, pol); err != nil {
		return nil, err
	}
	return c, nil
}

// Release hands c back for a later New to reuse its buffers. Call it once,
// after the last use of c, and never after a run that panicked (its state is
// unknown). What the run returned stays valid: Result, Stats and Output are
// copies. Everything reached through c becomes invalid: the core itself, its
// BT, Hier, Phys and Pred, and every *DynInst it handed to the policy.
func (c *Core) Release() {
	// Drop what belongs to the caller or to this run; prog stays, so the
	// next New can tell whether the metadata table is still the program's.
	c.hier.Phys = nil
	c.cfg, c.policy, c.cov, c.sec = Config{}, nil, nil, nil
	c.Hier, c.Phys, c.Pred = nil, nil, nil
	corePool.Put(c)
}

// init loads prog into c under cfg and attaches pol. It is the only
// construction path: every buffer a zero Core lacks is allocated here, and
// every buffer a released Core brings is resized and reset here, so the two
// start the run in the same state. Everything else starts at its zero value.
func (c *Core) init(prog *isa.Program, cfg Config, pol Policy) error {
	old := *c
	// Physical memory is always fresh: keeping pages cost resident memory
	// and saved no time.
	phys := mem.NewMemory()
	phys.WriteBytes(isa.DataBase, prog.Data)
	hier := old.hier
	if hier != nil && hier.Cfg == cfg.Hier {
		hier.Reset(phys)
	} else {
		var err error
		if hier, err = mem.NewHierarchy(cfg.Hier, phys); err != nil {
			return err
		}
	}
	pred := old.pred
	if pred != nil && pred.cfg == cfg.Predictor {
		pred.Reset()
	} else {
		pred = NewPredictor(cfg.Predictor)
	}
	bt := old.BT
	if bt != nil {
		bt.Reset(prog)
	} else {
		bt = core.NewBranchTable(prog)
	}
	meta := old.meta
	if prog != old.prog {
		meta = buildMeta(prog)
	}
	var ms MemSystem = hier
	if cfg.WrapMem != nil {
		ms = cfg.WrapMem(ms)
	}
	var bp BranchPredictor = pred
	if cfg.WrapPred != nil {
		bp = cfg.WrapPred(bp)
	}
	*c = Core{
		cfg:    cfg,
		prog:   prog,
		policy: pol,
		meta:   meta,
		BT:     bt,
		Hier:   ms,
		Phys:   phys,
		Pred:   bp,
		cov:    cfg.Coverage,
		hier:   hier,
		pred:   pred,
		// CheckInvariants' scratch (see pool.go); it resets it per call.
		invOwner:    old.invOwner,
		pooledInst:  old.pooledInst,
		pooledCheck: old.pooledCheck,
	}
	c.regVal = zeroed(old.regVal, cfg.NumPhysRegs)
	c.regReady = zeroed(old.regReady, cfg.NumPhysRegs)
	// Pre-size the wakeup lists (and the issue-scheduler queues below) so the
	// steady-state run allocates nothing: a register rarely collects more
	// than a handful of waiters, and the lists keep their capacity across
	// the ws[:0] reset in wake.
	if len(old.waiters) == cfg.NumPhysRegs {
		c.waiters = old.waiters
		for p := range c.waiters {
			c.waiters[p] = c.waiters[p][:0]
		}
	} else {
		c.waiters = make([][]waiter, cfg.NumPhysRegs)
		waiterSlab := make([]waiter, cfg.NumPhysRegs*8)
		for p := range c.waiters {
			c.waiters[p] = waiterSlab[p*8 : p*8 : (p+1)*8]
		}
	}
	c.readyQ = emptied(old.readyQ, cfg.IQSize+1)
	c.iqFreed = emptied(old.iqFreed, cfg.IssueWidth)
	// Pre-build the object pools from contiguous slabs sized to the window:
	// the steady-state loop then allocates nothing (no GC pressure charged
	// to the simulation), and window walks touch adjacent memory. Pooled
	// objects are reset on reuse (see pool.go), so a recycled slab needs no
	// clearing; a recycled Checkpoint keeps its RAS buffer.
	c.instSlab = sized(old.instSlab, cfg.ROBSize+cfg.FetchBufSize+8)
	c.instPool = emptied(old.instPool, len(c.instSlab)+8)
	for i := range c.instSlab {
		c.instPool = append(c.instPool, &c.instSlab[i])
	}
	c.instAllocd = len(c.instSlab)
	c.checkSlab = sized(old.checkSlab, core.NumSlots+cfg.FetchBufSize+8)
	c.checkPool = emptied(old.checkPool, len(c.checkSlab)+8)
	for i := range c.checkSlab {
		c.checkPool = append(c.checkPool, &c.checkSlab[i])
	}
	c.checkAllocd = len(c.checkSlab)
	// Completion-wheel buckets share one slab; a bucket overflowing its
	// four-entry reservation grows out of it individually (and keeps the
	// larger capacity from then on, across recycling too).
	if cap(old.wheel[0]) == 0 {
		entrySlab := make([]wheelEntry, wheelSize*4)
		for b := range c.wheel {
			c.wheel[b] = entrySlab[b*4 : b*4 : (b+1)*4]
		}
	} else {
		for b := range c.wheel {
			c.wheel[b] = old.wheel[b][:0]
		}
	}
	c.dueBuf = emptied(old.dueBuf, 64)
	c.rob = emptied(old.rob, 4*cfg.ROBSize+cfg.ROBSize+8)
	c.lq = emptied(old.lq, 4*cfg.LQSize+cfg.LQSize+8)
	c.sq = emptied(old.sq, 4*cfg.SQSize+cfg.SQSize+8)
	c.fetchBuf = emptied(old.fetchBuf, 4*cfg.FetchBufSize+cfg.FetchBufSize+8)
	c.fenceSeqs = old.fenceSeqs[:0]
	c.out = old.out[:0]
	for r := range int32(isa.NumRegs) {
		c.rat[r] = r
		c.commitRT[r] = r
		c.regReady[r] = true
	}
	c.regVal[isa.RegSP] = isa.StackTop
	c.regVal[isa.RegGP] = isa.DataBase
	c.freeList = emptied(old.freeList, cfg.NumPhysRegs-isa.NumRegs)
	for p := isa.NumRegs; p < cfg.NumPhysRegs; p++ {
		c.freeList = append(c.freeList, int32(p))
	}
	c.fetchPC = prog.Entry
	c.lastFetchLine = ^uint64(0)
	c.lineShift = uint(bits.TrailingZeros64(uint64(cfg.Hier.L1I.LineBytes)))
	c.bdtCap = cfg.BDTEntries
	if c.bdtCap == 0 {
		c.bdtCap = core.NumSlots
	}
	_, c.nop = pol.(NopPolicy)
	if _, ok := pol.(SecretTainter); ok {
		c.sec = newSecretState(c)
	}
	pol.Attach(c)
	pol.Reset()
	return nil
}

// sized returns s resliced to length n, reusing its backing array when it is
// large enough; elements it keeps are not cleared.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// zeroed is sized with every element cleared.
func zeroed[T any](s []T, n int) []T {
	s = sized(s, n)
	clear(s)
	return s
}

// emptied returns s truncated to length zero with capacity at least n,
// reusing its backing array when it is large enough.
func emptied[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, 0, n)
	}
	return s[:0]
}

// Config returns the core configuration.
func (c *Core) Config() Config { return c.cfg }

// Prog returns the loaded program.
func (c *Core) Prog() *isa.Program { return c.prog }

// Cycle returns the current cycle count.
func (c *Core) CycleCount() uint64 { return c.cycle }

// Halted reports whether a HALT has committed.
func (c *Core) Halted() bool { return c.halted }

// Output returns console output so far.
func (c *Core) Output() string { return string(c.out) }

// ArchReg returns the architectural (retired) value of register r.
func (c *Core) ArchReg(r isa.Reg) uint64 { return c.regVal[c.commitRT[r]] }

// Run simulates until HALT commits or a limit trips.
func (c *Core) Run() (Result, error) {
	for !c.halted {
		if err := c.Step(); err != nil {
			return Result{}, err
		}
		c.idleSkip()
	}
	return c.result(), nil
}

// RunContext simulates until HALT commits, a limit trips, or ctx is done.
// Cancellation is cooperative — checked every few thousand cycles so the
// hot loop stays select-free — and surfaces as simerr.ErrDeadline, which the
// sweep supervisor classifies transient (a wall-clock budget, not a model
// property).
func (c *Core) RunContext(ctx context.Context) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// At the simulator's throughput this interval bounds cancellation
	// latency well under a millisecond. The check fires once the cycle
	// counter passes the next check point: idleSkip jumps the counter, so it
	// may never land exactly on a multiple of the interval.
	const checkEvery = 1 << 13
	nextCheck := c.cycle + checkEvery
	for !c.halted {
		if err := c.Step(); err != nil {
			return Result{}, err
		}
		c.idleSkip()
		if c.cycle >= nextCheck {
			nextCheck = c.cycle + checkEvery
			select {
			case <-ctx.Done():
				return Result{}, &simerr.RunError{
					Kind: simerr.KindDeadline, Cycle: c.cycle, PC: c.fetchPC,
					Err: ctx.Err(),
				}
			default:
			}
		}
	}
	return c.result(), nil
}

func (c *Core) result() Result {
	c.syncStats()
	return Result{ExitCode: c.exitCode, Output: string(c.out), Stats: c.stats}
}

// syncStats folds the service-owned counters (cache hierarchy, branch table)
// into c.stats. Everything else in Stats is maintained incrementally by the
// pipeline stages.
func (c *Core) syncStats() {
	hs := c.Hier.Stats()
	c.stats.L1IHits = hs.L1I.Hits
	c.stats.L1IMisses = hs.L1I.Misses
	c.stats.L1DHits = hs.L1D.Hits
	c.stats.L1DMisses = hs.L1D.Misses
	c.stats.L2Hits = hs.L2.Hits
	c.stats.L2Misses = hs.L2.Misses
	c.stats.BDTAllocStalls = c.BT.AllocFailures
	c.stats.Cycles = c.cycle
}

// Stats returns the statistics accumulated so far (cache counters are synced
// on read). Unlike result it does not snapshot the console output, so live
// observers — supervisor failure reports, periodic metrics — can poll it
// without copying the run's output buffer every call.
func (c *Core) Stats() Stats {
	c.syncStats()
	return c.stats
}

// Step advances the core by one cycle.
func (c *Core) Step() error {
	if c.halted {
		return nil
	}
	c.cycle++
	if c.cfg.MaxCycles > 0 && c.cycle > c.cfg.MaxCycles {
		return &simerr.RunError{
			Kind: simerr.KindCycleLimit, Cycle: c.cycle, PC: c.fetchPC,
			Detail: fmt.Sprintf("cycle limit %d exceeded", c.cfg.MaxCycles),
		}
	}
	if c.cfg.MaxInsts > 0 && c.stats.Committed > c.cfg.MaxInsts {
		return &simerr.RunError{
			Kind: simerr.KindInstLimit, Cycle: c.cycle, PC: c.fetchPC,
			Detail: fmt.Sprintf("instruction limit %d exceeded", c.cfg.MaxInsts),
		}
	}
	wd := c.cfg.WatchdogCycles
	if wd == 0 {
		wd = 100_000
	}
	if wd > 0 && c.cycle-c.lastCommitCycle > uint64(wd) {
		return &simerr.RunError{
			Kind: simerr.KindWatchdog, Cycle: c.cycle, PC: c.fetchPC,
			Detail: fmt.Sprintf("no commit for %d cycles (%s)", wd, c.deadlockInfo()),
		}
	}
	c.active = false
	c.waits = 0
	if c.cfg.CommitStall == nil || !c.cfg.CommitStall(c.cycle) {
		if err := c.commit(); err != nil {
			return err
		}
	}
	c.complete()
	c.issue()
	c.rename()
	c.fetch()
	return nil
}

// idleSkip advances the cycle counter to just before the next timed event
// when the cycle that just executed was provably a pure wait (no stage
// changed any state — see Core.active). Every skipped cycle would have been
// an identical replay: the only cycle-dependent conditions in the pipeline
// are the completion wheel, the fetch-stall and divider release times, the
// invisible-load exposure at the commit head, and the watchdog/limit trips —
// all accounted for below. A replayed cycle reaches the same policy Wait
// verdicts (no slot resolves in between), so each skipped cycle adds the
// last cycle's wait count to PolicyWaitEvents. With a CommitStall hook
// installed (fault injection) cycles are never skipped, since the hook must
// be consulted every cycle.
func (c *Core) idleSkip() {
	if c.active || c.halted || c.cfg.CommitStall != nil {
		return
	}
	if c.cfg.MaxInsts > 0 && c.stats.Committed > c.cfg.MaxInsts {
		return // about to trip: let Step report it at the very next cycle
	}
	const never = ^uint64(0)
	next := never
	if t, ok := c.wheelNext(); ok {
		next = t
	}
	if !c.fetchHalted && c.fetchStallUntil > c.cycle && c.fetchStallUntil < next {
		next = c.fetchStallUntil
	}
	if c.divBusyUntil > c.cycle && c.divBusyUntil < next {
		next = c.divBusyUntil
	}
	if c.robHead < len(c.rob) {
		if d := c.rob[c.robHead]; d.State == StateDone && d.exposeUntil > c.cycle && d.exposeUntil < next {
			next = d.exposeUntil
		}
	}
	if next == never {
		return // no pending event: step normally (deadlock → watchdog)
	}
	wd := c.cfg.WatchdogCycles
	if wd == 0 {
		wd = 100_000
	}
	if wd > 0 {
		if trip := c.lastCommitCycle + uint64(wd) + 1; trip < next {
			next = trip
		}
	}
	if c.cfg.MaxCycles > 0 && c.cfg.MaxCycles+1 < next {
		next = c.cfg.MaxCycles + 1
	}
	if next > c.cycle+1 {
		c.stats.PolicyWaitEvents += (next - 1 - c.cycle) * c.waits
		c.cycle = next - 1 // the next Step lands exactly on the event cycle
	}
}

// memFault builds the typed error for a committed access outside simulated
// memory (an architectural fault in the guest program, not a model bug).
func (c *Core) memFault(d *DynInst, what string, cause error) error {
	return &simerr.RunError{
		Kind: simerr.KindMemFault, Cycle: c.cycle, PC: d.PC,
		Detail: fmt.Sprintf("%s: %v addr=%#x committed", what, d.Inst, d.Addr),
		Err:    cause,
	}
}

func (c *Core) deadlockInfo() string {
	if c.robHead >= len(c.rob) {
		return fmt.Sprintf("window empty, fetchPC=%#x fetchHalted=%v", c.fetchPC, c.fetchHalted)
	}
	d := c.rob[c.robHead]
	return fmt.Sprintf("head seq=%d pc=%#x %v state=%d wait=%#x", d.Seq, d.PC, d.Inst, d.State, uint64(d.WaitMask))
}

// ---------------------------------------------------------------- commit --

func (c *Core) commit() error {
	// Width and ROB length are invariant across the loop (commit only
	// advances robHead); hoisting them drops two reloads per retired
	// instruction that the compiler cannot eliminate across calls.
	cw := c.cfg.CommitWidth
	robLen := len(c.rob)
	// Every exit except a fault reaches the compact() after the loop, so
	// the queues stay bounded even in cycles where the head is not done.
retire:
	for n := 0; n < cw && c.robHead < robLen; n++ {
		d := c.rob[c.robHead]
		if d.State != StateDone {
			break
		}
		m := d.m
		op := m.inst.Op
		switch {
		case m.flags&mStore != 0:
			if d.MemErr {
				return c.memFault(d, "store to invalid address", nil)
			}
			if err := c.Phys.Write(d.Addr, int(m.memBytes), d.Result); err != nil {
				return c.memFault(d, "store failed", err)
			}
			c.Hier.FillVisible(d.Addr)
			if c.sec != nil {
				c.sec.commitStore(d, int(m.memBytes))
			}
			c.sqHead++
			c.stats.Stores++
		case m.flags&mLoad != 0:
			if d.MemErr {
				return c.memFault(d, "load from invalid address", nil)
			}
			if d.Invisible && d.FwdFrom == nil {
				// Deferred exposure of an invisible load: the line becomes
				// architecturally cached only now that the load is safe, and
				// the load cannot retire until the exposure/validation access
				// completes (the InvisiSpec validation step). Because the
				// invisible execution never filled the cache, validation of a
				// missing line pays the full hierarchy latency again — the
				// dominant cost of the invisible-execution defense class.
				if d.exposeUntil == 0 {
					lat := c.Hier.InvisibleLoadLatency(d.Addr)
					c.Hier.FillVisible(d.Addr)
					d.exposeUntil = c.cycle + uint64(lat)
					c.active = true // exposure access started
					break retire
				}
				if c.cycle < d.exposeUntil {
					break retire
				}
				c.stats.InvisibleLoads++
			}
			if d.FwdFrom != nil {
				c.stats.LoadForward++
			}
			c.lqHead++
			c.stats.Loads++
			if c.cov != nil {
				c.cov.mark(covLoad, covSite(d), covBit(d.FwdFrom != nil)|covBit(d.Invisible)<<1)
			}
		case op == isa.PUTC:
			c.out = append(c.out, byte(d.Result))
		case op == isa.PUTI:
			c.out = appendInt(c.out, int64(d.Result))
		case op == isa.HALT:
			c.halted = true
			c.exitCode = d.Result
			c.popFence(d.Seq)
		case op == isa.FENCE:
			c.popFence(d.Seq)
		case m.flags&mCondBranch != 0:
			c.Pred.UpdateBranch(int(d.PhtIdx), d.ActualTaken)
			c.stats.CondBranches++
			if d.Mispredict {
				c.stats.CondMispredicts++
			}
			if c.cov != nil {
				c.cov.mark(covBranch, covSite(d), covBit(d.ActualTaken)|covBit(d.Mispredict)<<1)
			}
		case op == isa.JALR:
			if !d.UsedRAS {
				c.Pred.UpdateIndirect(d.PC, d.ActualNext)
			}
			c.stats.Indirects++
			if d.Mispredict {
				c.stats.IndMispredicts++
			}
			if c.cov != nil {
				// Outcome bit 2 marks the indirect class apart from the
				// conditional taken/mispredict encodings above.
				c.cov.mark(covBranch, covSite(d), 1<<2|covBit(d.Mispredict))
			}
		}
		if m.flags&mTransmitter != 0 {
			c.stats.Transmitters++
			if d.EverWaited {
				c.stats.RestrictedTransmitters++
			}
			if d.specAtIssue {
				c.stats.SpecTransmitters++
			}
			if c.cov != nil {
				c.cov.mark(covTransmit, covSite(d), covBit(d.EverWaited)|covBit(d.specAtIssue)<<1)
			}
		}
		if d.Dst >= 0 {
			if d.OldDst >= 0 {
				c.freeList = append(c.freeList, d.OldDst)
			}
			c.commitRT[d.Inst.Rd] = d.Dst
		}
		if c.cfg.Trace != nil {
			c.traceCommit(d)
		}
		c.robHead++
		c.stats.Committed++
		c.lastCommitCycle = c.cycle
		c.active = true
		// Retired: recycle the object. The dead ROB prefix is never read, and
		// the only surviving references (a younger load's FwdFrom) are
		// identity-only.
		c.freeInst(d)
		if c.halted {
			break
		}
	}
	c.compact()
	return nil
}

// traceCommit writes one human-readable line per retired instruction.
func (c *Core) traceCommit(d *DynInst) {
	flags := ""
	if d.Mispredict {
		flags += " MISPREDICT"
	}
	if d.EverWaited {
		flags += " WAITED"
	}
	if d.Invisible {
		flags += " INVISIBLE"
	}
	if d.FwdFrom != nil {
		flags += " FWD"
	}
	loc := ""
	if sym, off, ok := c.prog.NearestSymbol(d.PC); ok {
		loc = fmt.Sprintf(" <%s+%#x>", sym, off)
	}
	fmt.Fprintf(c.cfg.Trace, "%10d seq=%-8d %#06x%s  %s%s\n",
		c.cycle, d.Seq, d.PC, loc, d.Inst, flags)
}

func (c *Core) popFence(seq uint64) {
	if len(c.fenceSeqs) > 0 && c.fenceSeqs[0] == seq {
		c.fenceSeqs = c.fenceSeqs[1:]
	}
}

func (c *Core) compact() {
	if c.robHead > 4*c.cfg.ROBSize {
		c.rob = append(c.rob[:0], c.rob[c.robHead:]...)
		c.robHead = 0
	}
	if c.lqHead > 4*c.cfg.LQSize {
		c.lq = append(c.lq[:0], c.lq[c.lqHead:]...)
		c.lqHead = 0
	}
	if c.sqHead > 4*c.cfg.SQSize {
		c.sq = append(c.sq[:0], c.sq[c.sqHead:]...)
		c.sqHead = 0
	}
	if c.fbHead > 4*c.cfg.FetchBufSize {
		c.fetchBuf = append(c.fetchBuf[:0], c.fetchBuf[c.fbHead:]...)
		c.fbHead = 0
	}
}

// -------------------------------------------------------------- complete --

// complete handles instructions whose execution finishes this cycle:
// writeback, branch resolution, and misprediction recovery (oldest first).
// It is event-driven: the completion wheel hands back exactly the
// instructions whose DoneCycle is now, already in program order, so the cost
// is O(completions this cycle) instead of O(window).
func (c *Core) complete() {
	var recover *DynInst
	for _, d := range c.dueNow() {
		c.active = true
		d.State = StateDone
		if d.Dst >= 0 {
			c.regVal[d.Dst] = d.Result
			c.regReady[d.Dst] = true
			if len(c.waiters[d.Dst]) > 0 {
				c.wake(d.Dst)
			}
		}
		if d.BrSlot >= 0 {
			if d.Mispredict && recover == nil {
				recover = d // oldest mispredict this cycle (program order)
			} else if !d.Mispredict {
				c.resolveSlot(d)
			}
		}
	}
	if recover != nil {
		c.recoverFrom(recover)
	}
}

// resolveSlot retires a correctly-speculated control instruction's BDT slot
// and clears its bit from every in-flight dependency mask. The checkpoint is
// dead once the slot resolves (recovery can no longer target this
// instruction), so it is recycled here; recoverFrom therefore restores
// rename/predictor state before resolving the mispredicted instruction's own
// slot.
func (c *Core) resolveSlot(d *DynInst) {
	slot := int(d.BrSlot)
	d.BrSlot = -1
	c.BT.Resolve(slot)
	c.verdictEpoch++
	// Under the NopPolicy no instruction ever carries a dependency mask
	// (OnRename is a no-op and masks reset with the object), so the
	// O(window) clearing walk is pure overhead and is skipped.
	if !c.nop {
		c.policy.OnSlotResolved(slot)
		for i := c.robHead; i < len(c.rob); i++ {
			e := c.rob[i]
			e.WaitMask = e.WaitMask.Without(slot)
			e.DataMask = e.DataMask.Without(slot)
		}
	}
	if d.Check != nil {
		c.freeCheck(d.Check)
		d.Check = nil
	}
}

// recoverFrom squashes everything younger than the mispredicted control
// instruction d and redirects fetch to the resolved target.
func (c *Core) recoverFrom(d *DynInst) {
	// Squash younger window contents, youngest first. The objects cannot be
	// recycled yet: the issue/load/store queues still reference them.
	nsq := 0
	for i := len(c.rob) - 1; i > c.robHead; i-- {
		e := c.rob[i]
		if e.Seq <= d.Seq {
			break
		}
		e.Squashed = true
		if !c.nop {
			c.policy.OnSquash(e)
		}
		if e.inIQ {
			e.inIQ = false
			c.iqCount--
		}
		if e.Dst >= 0 {
			c.freeList = append(c.freeList, e.Dst)
		}
		c.rob = c.rob[:i]
		c.stats.Squashed++
		nsq++
	}
	if c.cov != nil && nsq > 0 {
		c.cov.mark(covSquash, covSite(d), log2Bucket(nsq))
	}
	// A wrong-path divide occupying the divider is squashed with everything
	// else: a real core drops the operation when its station is flushed.
	// Without this, a squashed DIV's operand-dependent latency would block
	// correct-path divides after recovery.
	if c.divBusySeq > d.Seq {
		c.divBusyUntil = 0
		c.divBusySeq = 0
	}
	// Remove squashed entries from the side queues. Stale references left on
	// register wakeup lists and the vacate list are dropped lazily by their
	// generation tags.
	c.readyQ = filterLive(c.readyQ)
	c.lq = trimYounger(c.lq, c.lqHead, d.Seq)
	c.sq = trimYounger(c.sq, c.sqHead, d.Seq)
	for len(c.fenceSeqs) > 0 && c.fenceSeqs[len(c.fenceSeqs)-1] > d.Seq {
		c.fenceSeqs = c.fenceSeqs[:len(c.fenceSeqs)-1]
	}

	// Recycle the squashed instructions and the wrong-path fetch buffer.
	// Every live structure that could read through the pointers has been
	// filtered above; completion-wheel entries for in-flight squashed
	// instructions go stale via the generation bump in freeInst.
	for _, e := range c.rob[len(c.rob) : len(c.rob)+nsq] {
		c.freeInst(e)
	}
	for _, e := range c.fetchBuf[c.fbHead:] {
		c.freeInst(e)
	}
	c.fetchBuf = c.fetchBuf[:0]
	c.fbHead = 0

	// Branch table: free younger slots and restore region state.
	c.BT.Squash(d.Seq, int(d.BrSlot))

	// Restore the rename map and predictor state.
	c.rat = d.Check.RAT
	c.Pred.Recover(d.Check.Pred, d.IsCondBranch(), d.ActualTaken)
	if d.Inst.Op == isa.JALR {
		// Re-apply the RAS effect of the (now resolved) JALR.
		if d.UsedRAS {
			c.Pred.PopRAS()
		} else if d.Inst.Rd == isa.RegRA {
			c.Pred.PushRAS(d.PC + isa.InstBytes)
		}
	}

	// Resolve the mispredicted control instruction's own slot last: this
	// recycles its checkpoint, which the restores above still read. It also
	// advances verdictEpoch, so the survivors' Wait verdicts are re-asked.
	c.resolveSlot(d)

	c.fetchPC = d.ActualNext
	c.fetchStallUntil = c.cycle + uint64(c.cfg.RedirectPenalty)
	c.fetchHalted = false
	c.lastFetchLine = ^uint64(0)
}

func filterLive(q []*DynInst) []*DynInst {
	out := q[:0]
	for _, d := range q {
		if !d.Squashed {
			out = append(out, d)
		}
	}
	return out
}

// trimYounger pops queue entries younger than seq. It must stop at the
// queue's dead prefix (head): committed entries there have been recycled, so
// their Seq fields belong to unrelated newer instructions.
func trimYounger(q []*DynInst, head int, seq uint64) []*DynInst {
	for len(q) > head && q[len(q)-1].Seq > seq {
		q = q[:len(q)-1]
	}
	return q
}

// ----------------------------------------------------------------- issue --

// waiter is a generation-tagged instruction reference parked on a physical
// register's wakeup list (or the deferred issue-queue vacate list). The
// generation snapshot makes references to squash-recycled objects detectable,
// exactly as the completion wheel's entries are.
type waiter struct {
	d   *DynInst
	gen uint32
}

// wake delivers a register writeback to the instructions parked on it: each
// drops one pending operand and joins the ready queue (in age order) when its
// last one arrives. An instruction reading the same register through both
// source operands parked twice and is woken twice.
func (c *Core) wake(p int32) {
	ws := c.waiters[p]
	for _, w := range ws {
		d := w.d
		if d.gen != w.gen || d.Squashed {
			continue // squashed since parking: drop the stale reference
		}
		if d.pending--; d.pending == 0 {
			c.readyInsert(d)
		}
	}
	c.waiters[p] = ws[:0]
}

// readyInsert files d into the ready queue at its age-ordered position.
// Wakeups arrive a few per cycle and mostly young, so the backward insertion
// scan is short; dispatch-time-ready instructions append directly (they are
// always the youngest).
func (c *Core) readyInsert(d *DynInst) {
	q := append(c.readyQ, d)
	i := len(q) - 1
	for i > 0 && q[i-1].Seq > d.Seq {
		q[i] = q[i-1]
		i--
	}
	q[i] = d
	c.readyQ = q
}

// issue is event-driven: it examines only the ready queue — instructions
// whose operands have all written back — instead of rescanning the whole
// issue queue every cycle. Selection order (age order over the ready subset)
// and all structural/policy gates are identical to the scan this replaces;
// an instruction blocked by a gate simply stays queued for the next cycle.
func (c *Core) issue() {
	// Instructions that fired last cycle vacate their issue-queue entry now:
	// the scan-based queue dropped them at the pass after they issued, so
	// rename's capacity check must see them occupying an entry one cycle.
	if len(c.iqFreed) > 0 {
		for _, w := range c.iqFreed {
			if w.d.gen == w.gen && w.d.inIQ {
				w.d.inIQ = false
				c.iqCount--
				c.active = true // occupancy drop: rename may now dispatch
			}
		}
		c.iqFreed = c.iqFreed[:0]
	}
	if len(c.readyQ) == 0 {
		return
	}
	aluFree := c.cfg.NumALU
	mulFree := c.cfg.NumMul
	memFree := c.cfg.NumMemPorts
	width := c.cfg.IssueWidth
	issued := 0
	// Serialization bound, hoisted: nothing younger than the oldest
	// in-flight FENCE/HALT runs.
	fenceSeq := ^uint64(0)
	if len(c.fenceSeqs) > 0 {
		fenceSeq = c.fenceSeqs[0]
	}

	keep := c.readyQ[:0]
	for _, d := range c.readyQ {
		if issued >= width {
			keep = append(keep, d)
			continue
		}
		if d.Seq > fenceSeq {
			keep = append(keep, d)
			continue
		}
		m := d.m
		// FENCE and HALT execute only from the window head.
		if m.flags&mFenceHalt != 0 && !c.isHead(d) {
			keep = append(keep, d)
			continue
		}
		// Memory structural checks first: a load blocked by an unresolved
		// older store address is a correctness stall, not a policy stall.
		var fwd *DynInst
		if m.flags&mMemPort != 0 {
			if memFree <= 0 {
				keep = append(keep, d)
				continue
			}
			c.computeAddr(d)
			if m.flags&mLoad != 0 {
				ok, src := c.loadMayIssue(d)
				if !ok {
					keep = append(keep, d)
					continue
				}
				fwd = src
			}
		}
		switch m.fu {
		case fuALU:
			if aluFree <= 0 {
				keep = append(keep, d)
				continue
			}
		case fuMul:
			if mulFree <= 0 {
				keep = append(keep, d)
				continue
			}
		case fuDiv:
			if c.divBusyUntil > c.cycle {
				keep = append(keep, d)
				continue
			}
		case fuMem:
			// Port availability checked in the mMemPort block above.
		}
		// Policy gate (skipped for the NopPolicy baseline: always Proceed).
		// A Wait verdict stands until the next verdictEpoch bump (the Decide
		// contract), so it is reused rather than re-asked. A wait is not
		// activity: it changes nothing the next cycle would see.
		decision := Proceed
		if !c.nop {
			if d.EverWaited && d.waitEpoch == c.verdictEpoch {
				decision = Wait
			} else {
				decision = c.policy.Decide(d)
			}
			if decision == Wait {
				d.EverWaited = true
				d.waitEpoch = c.verdictEpoch
				c.stats.PolicyWaitEvents++
				c.waits++
				if c.cov != nil {
					c.cov.mark(covPolicyWait, covSite(d), 0)
				}
				keep = append(keep, d)
				continue
			}
		}
		if m.flags&mTransmitter != 0 && c.BT.Unresolved() != 0 {
			d.specAtIssue = true
		}
		// Fire.
		switch m.fu {
		case fuALU:
			aluFree--
		case fuMul:
			mulFree--
		case fuMem:
			memFree--
		case fuDiv:
			// The divider's occupancy is tracked by divBusyUntil.
		}
		c.execute(d, decision, fwd)
		c.iqFreed = append(c.iqFreed, waiter{d, d.gen})
		issued++
		c.active = true
	}
	c.readyQ = keep
}

func (c *Core) isHead(d *DynInst) bool {
	return c.robHead < len(c.rob) && c.rob[c.robHead] == d
}

func (c *Core) srcsReady(d *DynInst) bool {
	if d.Src1 >= 0 && !c.regReady[d.Src1] {
		return false
	}
	if d.Src2 >= 0 && !c.regReady[d.Src2] {
		return false
	}
	return true
}

func (c *Core) srcVal(phys int32) uint64 {
	if phys < 0 {
		return 0
	}
	return c.regVal[phys]
}

func (c *Core) computeAddr(d *DynInst) {
	if !d.AddrReady {
		d.Addr = c.srcVal(d.Src1) + uint64(d.Inst.Imm)
		d.AddrReady = true
	}
}

// loadMayIssue enforces conservative memory disambiguation: every older
// store's address must be known; an exact-match store with captured data
// forwards; any partial overlap stalls the load until the store commits.
func (c *Core) loadMayIssue(d *DynInst) (bool, *DynInst) {
	size := uint64(d.m.memBytes)
	var match *DynInst
	for i := c.sqHead; i < len(c.sq); i++ {
		s := c.sq[i]
		if s.Seq > d.Seq {
			break
		}
		if !s.AddrReady {
			return false, nil
		}
		ssize := uint64(s.m.memBytes)
		// Wrap-safe overlap test: the unsigned differences measure the
		// (modular) distance from each interval's base to the other's, so
		// intervals straddling 2^64 — wild wrong-path addresses — still
		// compare correctly where `s.Addr < d.Addr+size` would wrap.
		if d.Addr-s.Addr < ssize || s.Addr-d.Addr < size {
			if s.Addr == d.Addr && ssize == size && s.State == StateDone {
				match = s // youngest older exact match wins
			} else {
				if c.cov != nil {
					c.cov.mark(covAlias, covSite(d), 0)
				}
				return false, nil // partial overlap: wait for store commit
			}
		}
	}
	return true, match
}

// execute runs d's compiled handler (see buildExec in meta.go) and schedules
// completion on the wheel.
func (c *Core) execute(d *DynInst, decision Decision, fwd *DynInst) {
	lat := d.m.exec(c, d, decision, fwd)
	if c.sec != nil {
		c.sec.afterExec(c, d, fwd)
	}
	d.State = StateExecuting
	d.DoneCycle = c.cycle + uint64(lat)
	c.schedule(d)
}

// ---------------------------------------------------------------- rename --

func (c *Core) rename() {
	// Occupancies and capacities are loop-hoisted: nothing called from the
	// loop body mutates them except the dispatch code below, which maintains
	// the locals in step. The compiler cannot prove that (calls through
	// c.policy and c.BT could alias anything), so hoisting by hand removes
	// four field reloads per renamed instruction.
	robOcc := len(c.rob) - c.robHead
	lqOcc := len(c.lq) - c.lqHead
	sqOcc := len(c.sq) - c.sqHead
	robCap, iqCap := c.cfg.ROBSize, c.cfg.IQSize
	lqCap, sqCap := c.cfg.LQSize, c.cfg.SQSize
	for n := 0; n < c.cfg.RenameWidth && c.fbHead < len(c.fetchBuf); n++ {
		d := c.fetchBuf[c.fbHead]
		if robOcc >= robCap {
			return
		}
		if c.iqCount >= iqCap {
			return
		}
		m := d.m
		if m.flags&mLoad != 0 && lqOcc >= lqCap {
			return
		}
		if m.flags&mStore != 0 && sqOcc >= sqCap {
			return
		}
		needsSlot := m.flags&mNeedsSlot != 0
		if needsSlot && c.BT.InFlight() >= c.bdtCap {
			c.BT.AllocFailures++
			c.active = true // the stall counter advances every stalled cycle
			return
		}
		hasDst := m.flags&mHasDst != 0
		if hasDst && len(c.freeList) == 0 {
			return
		}

		c.fbHead++
		// Region close only ever fires at annotated reconvergence points;
		// everywhere else CloseRegions is a no-op by construction, so the
		// call is gated on the decoded flag.
		if m.flags&mReconv != 0 {
			c.BT.CloseRegions(d.PC)
		}

		d.Src1, d.Src2, d.Dst, d.OldDst = -1, -1, -1, -1
		if m.flags&mSrc1 != 0 {
			d.Src1 = c.rat[d.Inst.Rs1]
		}
		if m.flags&mSrc2 != 0 {
			d.Src2 = c.rat[d.Inst.Rs2]
		}
		if hasDst {
			d.OldDst = c.rat[d.Inst.Rd]
			d.Dst = c.freeList[len(c.freeList)-1]
			c.freeList = c.freeList[:len(c.freeList)-1]
			c.regReady[d.Dst] = false
			c.rat[d.Inst.Rd] = d.Dst
		}

		// Policy sees the pre-allocation table state (its own slot is not a
		// dependency of itself).
		if !c.nop {
			c.policy.OnRename(d)
		}

		if needsSlot {
			slot, ok := c.BT.AllocHinted(d.Seq, d.PC, m.hint)
			if !ok {
				// Should not happen: capacity checked above. Treat as stall:
				// the buffer slot still holds d, so back the head up.
				c.fbHead--
				return
			}
			d.BrSlot = int32(slot)
			d.Check.RAT = c.rat
		}
		if m.flags&mFenceHalt != 0 {
			c.fenceSeqs = append(c.fenceSeqs, d.Seq)
		}

		d.State = StateRenamed
		c.rob = append(c.rob, d)
		robOcc++
		// Dispatch into the issue scheduler: claim an issue-queue entry and
		// either park on the still-pending source registers or go straight to
		// the ready queue (dispatch order is age order, so append keeps it
		// sorted). Readiness is monotone for live instructions — a physical
		// register never becomes unready while a reader is in flight — so a
		// count of outstanding writebacks is exact.
		d.inIQ = true
		c.iqCount++
		pend := int8(0)
		if d.Src1 >= 0 && !c.regReady[d.Src1] {
			c.waiters[d.Src1] = append(c.waiters[d.Src1], waiter{d, d.gen})
			pend++
		}
		if d.Src2 >= 0 && !c.regReady[d.Src2] {
			c.waiters[d.Src2] = append(c.waiters[d.Src2], waiter{d, d.gen})
			pend++
		}
		d.pending = pend
		if pend == 0 {
			c.readyQ = append(c.readyQ, d)
		}
		if m.flags&mLoad != 0 {
			c.lq = append(c.lq, d)
			lqOcc++
		}
		if m.flags&mStore != 0 {
			c.sq = append(c.sq, d)
			sqOcc++
		}
		c.stats.Renamed++
		c.active = true
	}
}

// ----------------------------------------------------------------- fetch --

func (c *Core) fetch() {
	if c.fetchHalted || c.cycle < c.fetchStallUntil {
		return
	}
	// Reset the ring once rename has drained it, so steady-state operation
	// appends into the same backing array instead of growing forever.
	if c.fbHead > 0 && c.fbHead == len(c.fetchBuf) {
		c.fetchBuf = c.fetchBuf[:0]
		c.fbHead = 0
	}
	for n := 0; n < c.cfg.FetchWidth && len(c.fetchBuf)-c.fbHead < c.cfg.FetchBufSize; n++ {
		// Every path below changes state (an instruction is delivered, the
		// front end halts, or an I-miss stall begins), so reaching the loop
		// body at all makes the cycle active.
		c.active = true
		m := c.metaAt(c.fetchPC)
		if m == nil {
			// Wrong-path fetch ran outside the text segment; stall until a
			// misprediction recovery redirects us.
			c.fetchHalted = true
			return
		}
		if line := c.fetchPC >> c.lineShift; line != c.lastFetchLine {
			lat := c.Hier.FetchLatency(c.fetchPC)
			c.lastFetchLine = line
			if lat > c.cfg.Hier.L1I.Latency {
				// Miss: deliver nothing until the line arrives.
				c.fetchStallUntil = c.cycle + uint64(lat)
				return
			}
		}
		c.seq++
		d := c.newDynInst(c.seq, c.fetchPC, m)
		next := m.seqNext
		switch m.kind {
		case fkBranch:
			// Checkpoint before predicting: PredictBranch speculatively
			// updates the history the checkpoint must capture.
			d.Check = c.newCheckpoint()
			c.Pred.CheckpointInto(&d.Check.Pred)
			taken, idx := c.Pred.PredictBranch(c.fetchPC)
			d.PredTaken, d.PhtIdx = taken, int32(idx)
			if taken {
				next = m.target
			}
		case fkJAL:
			next = m.target
			if m.flags&mPushRAS != 0 {
				c.Pred.PushRAS(m.seqNext)
			}
		case fkJALR:
			d.Check = c.newCheckpoint()
			c.Pred.CheckpointInto(&d.Check.Pred)
			if m.flags&mRet != 0 {
				next = c.Pred.PopRAS()
				d.UsedRAS = true
			} else {
				if tgt, hit := c.Pred.PredictIndirect(c.fetchPC); hit {
					next = tgt
				}
				if m.flags&mPushRAS != 0 {
					c.Pred.PushRAS(m.seqNext)
				}
			}
		}
		d.PredNext = next
		c.fetchBuf = append(c.fetchBuf, d)
		c.stats.Fetched++
		c.fetchPC = next
		if m.kind == fkHALT {
			c.fetchHalted = true
			return
		}
		if m.flags&mControl != 0 && next != m.seqNext {
			return // taken-control fetch break
		}
	}
}

func appendInt(b []byte, v int64) []byte {
	return strconv.AppendInt(b, v, 10)
}
