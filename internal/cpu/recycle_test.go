package cpu

import (
	"fmt"
	"testing"

	"levioso/internal/asm"
	"levioso/internal/core"
	"levioso/internal/isa"
)

// callSrc mixes calls and returns (RAS), an indirect jump table (BTB),
// stores, loads and a divide, so a recycled core's predictor, caches and
// divider all start from whatever the previous run left behind.
const callSrc = `
main:
	li s0, 0
	li s1, 0
loop:
	andi t0, s1, 3
	slli t0, t0, 3
	la t1, table
	add t1, t1, t0
	ld t2, 0(t1)
	jalr ra, 0(t2)
	la t4, buf
	sd s0, 0(t4)
	ld t5, 0(t4)
	li t6, 7
	div t5, t5, t6
	add s0, s0, t5
	addi s1, s1, 1
	li t3, 40
	blt s1, t3, loop
	puti s0
	halt s0
f0:	addi s0, s0, 1
	ret
f1:	addi s0, s0, 10
	ret
f2:	addi s0, s0, 100
	ret
f3:	addi s0, s0, 1000
	ret
	.data
table:	.quad f0, f1, f2, f3
buf:	.space 8
`

func mustProg(t testing.TB, src string) *isa.Program {
	t.Helper()
	prog, err := asm.Assemble("t.s", src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.Annotate(prog); err != nil {
		t.Fatal(err)
	}
	return prog
}

// freshCore builds a core from a zero Core, whatever the pool holds.
func freshCore(t *testing.T, prog *isa.Program, cfg Config) *Core {
	t.Helper()
	c := new(Core)
	if err := c.init(prog, cfg, NopPolicy{}); err != nil {
		t.Fatal(err)
	}
	return c
}

func mustRun(t *testing.T, c *Core) Result {
	t.Helper()
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRecycledCoreResizes re-initializes a used core for every (program,
// configuration) pair, including geometries whose windows, register file,
// caches and predictor are smaller or larger than the previous run's, and
// the same program again (metadata reuse). Each run must match a core built
// from nothing exactly and leave the core's invariants intact.
func TestRecycledCoreResizes(t *testing.T) {
	small := DefaultConfig()
	small.FetchWidth, small.IssueWidth = 4, 4
	small.ROBSize, small.NumPhysRegs, small.IQSize = 64, 112, 24
	small.LQSize, small.SQSize, small.FetchBufSize = 16, 12, 8
	small.Hier.L1D.Ways, small.Hier.L2.Sets = 4, 64
	small.Predictor = PredConfig{GShareBits: 8, HistoryBits: 6, BTBEntries: 64, RASDepth: 4}
	large := DefaultConfig()
	large.ROBSize, large.NumPhysRegs, large.IQSize = 320, 420, 96
	large.LQSize, large.SQSize, large.FetchBufSize = 64, 48, 32
	large.Hier.L1I.Sets = 128
	large.Predictor.GShareBits, large.Predictor.RASDepth = 16, 32
	cfgs := map[string]Config{"default": DefaultConfig(), "small": small, "large": large}
	progs := map[string]*isa.Program{"branchy": mustProg(t, branchySrc), "calls": mustProg(t, callSrc)}

	type run struct{ prog, cfg string }
	var runs []run
	for p := range progs {
		for c := range cfgs {
			runs = append(runs, run{p, c})
		}
	}
	want := make(map[run]Result)
	for _, r := range runs {
		want[r] = mustRun(t, freshCore(t, progs[r.prog], cfgs[r.cfg]))
	}
	for _, prev := range runs {
		for _, next := range runs {
			c := freshCore(t, progs[prev.prog], cfgs[prev.cfg])
			mustRun(t, c)
			if err := c.init(progs[next.prog], cfgs[next.cfg], NopPolicy{}); err != nil {
				t.Fatal(err)
			}
			if got := mustRun(t, c); got != want[next] {
				t.Errorf("%v after %v: got %+v, want %+v", next, prev, got, want[next])
			}
			if err := c.CheckInvariants(); err != nil {
				t.Errorf("%v after %v: %v", next, prev, err)
			}
		}
	}
}

// TestRecycledNewAllocs bounds what a steady-state New, Run and Release
// still allocates once a released core is available: the fresh physical
// memory (its struct, page-table chunks and pages) and the output string.
// The policy here is NopPolicy, which allocates nothing.
func TestRecycledNewAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop released cores at random")
	}
	prog := mustProg(t, callSrc)
	cfg := DefaultConfig()
	cycle := func() {
		c, err := New(prog, cfg, NopPolicy{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Run(); err != nil {
			t.Fatal(err)
		}
		c.Release()
	}
	cycle()
	allocs := testing.AllocsPerRun(20, cycle)
	t.Logf("recycled New+Run+Release: %.1f allocations", allocs)
	if allocs > 8 {
		t.Errorf("recycled New+Run+Release made %.1f allocations, want <= 8", allocs)
	}
}

// TestCheckInvariantsAllocs locks in that a passing audit allocates
// nothing after its first call, mid-run (live window) and after the run.
func TestCheckInvariantsAllocs(t *testing.T) {
	c := freshCore(t, mustProg(t, branchySrc), DefaultConfig())
	for range 300 {
		if err := c.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if len(c.rob) == c.robHead {
		t.Fatal("window empty mid-run; the audit would skip the live-instruction checks")
	}
	audit := func() {
		if err := c.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	audit()
	if n := testing.AllocsPerRun(10, audit); n != 0 {
		t.Errorf("mid-run CheckInvariants made %.1f allocations, want 0", n)
	}
	mustRun(t, c)
	if n := testing.AllocsPerRun(10, audit); n != 0 {
		t.Errorf("post-run CheckInvariants made %.1f allocations, want 0", n)
	}
}

// TestCheckInvariantsMessages corrupts the register accounting in each way
// the owner table detects and checks the exact message of each.
func TestCheckInvariantsMessages(t *testing.T) {
	prog := mustProg(t, branchySrc)
	midRun := func(t *testing.T) (*Core, *DynInst) {
		c := freshCore(t, prog, DefaultConfig())
		for range 300 {
			if err := c.Step(); err != nil {
				t.Fatal(err)
			}
		}
		for _, d := range c.rob[c.robHead:] {
			if d.Dst >= 0 {
				return c, d
			}
		}
		t.Fatal("no live instruction with a destination")
		return nil, nil
	}
	cases := []struct {
		name    string
		corrupt func(c *Core, d *DynInst) string
	}{
		{"arch out of range", func(c *Core, _ *DynInst) string {
			c.commitRT[3] = 9999
			return fmt.Sprintf("cpu: invariant: commitRT[%s] claims out-of-range phys reg 9999", isa.Reg(3))
		}},
		{"arch and free", func(c *Core, _ *DynInst) string {
			p := c.commitRT[5]
			c.freeList = append(c.freeList, p)
			return fmt.Sprintf("cpu: invariant: phys reg %d claimed by both commitRT[%s] and freeList", p, isa.Reg(5))
		}},
		{"live and free", func(c *Core, d *DynInst) string {
			c.freeList = append(c.freeList, d.Dst)
			return fmt.Sprintf("cpu: invariant: phys reg %d claimed by both seq %d dst and freeList", d.Dst, d.Seq)
		}},
		{"leak", func(c *Core, _ *DynInst) string {
			p := c.freeList[len(c.freeList)-1]
			c.freeList = c.freeList[:len(c.freeList)-1]
			return fmt.Sprintf("cpu: invariant: phys reg %d leaked (not architectural, live, or free)", p)
		}},
		{"rat at free", func(c *Core, _ *DynInst) string {
			p := c.freeList[0]
			c.rat[7] = p
			return fmt.Sprintf("cpu: invariant: rat[%s] = %d points at a free register", isa.Reg(7), p)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, d := midRun(t)
			want := tc.corrupt(c, d)
			err := c.CheckInvariants()
			if err == nil || err.Error() != want {
				t.Errorf("got %v\nwant %s", err, want)
			}
		})
	}
}
