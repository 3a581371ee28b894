package cpu

import (
	"testing"

	"levioso/internal/workloads"
)

// fenceTestPolicy is internal/secure's fence policy (which this package
// cannot import): every instruction waits for all older unresolved branches.
// It counts the Wait verdicts it hands out.
type fenceTestPolicy struct {
	NopPolicy
	c     *Core
	waits uint64
}

func (p *fenceTestPolicy) Attach(c *Core)      { p.c = c }
func (p *fenceTestPolicy) OnRename(d *DynInst) { d.WaitMask = p.c.BT.Unresolved() }

func (p *fenceTestPolicy) Decide(d *DynInst) Decision {
	if d.WaitMask != 0 {
		p.waits++
		return Wait
	}
	return Proceed
}

// TestWaitVerdictReused checks that the issue stage reuses a Wait verdict
// until a branch slot resolves instead of asking the policy every cycle:
// the policy must hand out far fewer Wait verdicts than the core counts.
// Asking every cycle makes the two equal.
func TestWaitVerdictReused(t *testing.T) {
	w, _ := workloads.ByName("pchase")
	pol := &fenceTestPolicy{}
	c, err := New(w.MustBuild(workloads.SizeTest), DefaultConfig(), pol)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if counted := res.Stats.PolicyWaitEvents; 2*pol.waits > counted {
		t.Errorf("policy asked for %d Wait verdicts of the %d counted: the core re-asks unchanged verdicts", pol.waits, counted)
	}
}

// TestWindowQueuesStayBounded is the regression test for the commit stage
// returning early when the window head was not done: it skipped compact(),
// so the ROB, fetch buffer and load/store queues grew by append for the
// whole run. A commit-stall-heavy kernel (pointer chasing under fence) must
// keep every queue inside the capacity New reserved for it.
func TestWindowQueuesStayBounded(t *testing.T) {
	w, _ := workloads.ByName("pchase")
	c, err := New(w.MustBuild(workloads.SizeTest), DefaultConfig(), &fenceTestPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	queues := []struct {
		name string
		q    *[]*DynInst
		cap  int
	}{
		{"rob", &c.rob, cap(c.rob)},
		{"fetchBuf", &c.fetchBuf, cap(c.fetchBuf)},
		{"lq", &c.lq, cap(c.lq)},
		{"sq", &c.sq, cap(c.sq)},
	}
	for !c.Halted() {
		if err := c.Step(); err != nil {
			t.Fatal(err)
		}
		c.idleSkip()
		for _, q := range queues {
			if got := cap(*q.q); got > q.cap {
				t.Fatalf("cycle %d: cap(%s) = %d, beyond the %d New reserved", c.CycleCount(), q.name, got, q.cap)
			}
		}
	}
	if c.stats.PolicyWaitEvents == 0 {
		t.Fatal("fence never held an instruction: the kernel no longer stalls commit")
	}
}
