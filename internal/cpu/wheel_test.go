package cpu

import (
	"testing"

	"levioso/internal/asm"
)

// The completion wheel keeps instructions whose latency exceeds the wheel
// circumference (wheelSize cycles) in their bucket across laps. These tests
// pin down lap survival and the Seq-order drain the complete stage relies on.

// TestWheelLapSurvivalAndSeqOrder drives the bucket logic directly: two
// instructions due this lap (scheduled out of order) must drain sorted by
// Seq, an instruction one full lap later must stay parked, and a recycled
// (squashed) instruction's stale entry must be dropped.
func TestWheelLapSurvivalAndSeqOrder(t *testing.T) {
	c := wildCore(t)
	const due = 5220 // bucket index due & wheelMask

	older := wildInst(c, 3, 0, 0)
	older.DoneCycle = due
	younger := wildInst(c, 5, 0, 0)
	younger.DoneCycle = due
	lapper := wildInst(c, 4, 0, 0)
	lapper.DoneCycle = due + wheelSize // same bucket, next lap

	stale := wildInst(c, 6, 0, 0)
	stale.DoneCycle = due

	// Schedule in scrambled order; the drain must still be Seq-sorted.
	c.schedule(younger)
	c.schedule(lapper)
	c.schedule(stale)
	c.schedule(older)
	c.freeInst(stale) // squashed and recycled: its wheel entry is now stale

	c.cycle = due
	got := c.dueNow()
	if len(got) != 2 || got[0] != older || got[1] != younger {
		t.Fatalf("lap 1 drain = %v entries, want [seq 3, seq 5] in order", seqs(got))
	}

	c.cycle = due + wheelSize
	got = c.dueNow()
	if len(got) != 1 || got[0] != lapper {
		t.Fatalf("lap 2 drain = %v, want [seq 4] after surviving a full lap", seqs(got))
	}
	if rest := c.dueNow(); len(rest) != 0 {
		t.Fatalf("bucket not empty after lap 2: %v", seqs(rest))
	}
}

func seqs(ds []*DynInst) []uint64 {
	out := make([]uint64, len(ds))
	for i, d := range ds {
		out[i] = d.Seq
	}
	return out
}

// TestWheelMultiLapLatencyCompletes runs a whole program whose multiply
// latency exceeds the wheel circumference several times over: every mul
// parks in its bucket for 3+ laps and the dependent chain must still commit
// in program order with the correct architectural result.
func TestWheelMultiLapLatencyCompletes(t *testing.T) {
	prog := asm.MustAssemble("t.s", `
main:
	li t0, 6
	li t1, 7
	mul t2, t0, t1     # latency > 3 wheel laps
	mul t3, t2, t0     # dependent: waits out another 3+ laps
	addi t4, t3, 0
	halt t4            # 6*7*6 = 252
`)
	cfg := DefaultConfig()
	cfg.MulLatency = 3*wheelSize + 129 // 897 cycles: three full laps plus a partial
	cfg.WatchdogCycles = -1            // no commits while the muls are in flight
	c, err := New(prog, cfg, NopPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.ExitCode != 252 {
		t.Errorf("exit = %d, want 252", res.ExitCode)
	}
	if res.Stats.Cycles < 2*uint64(cfg.MulLatency) {
		t.Errorf("cycles = %d: dependent muls cannot both have paid %d-cycle latency",
			res.Stats.Cycles, cfg.MulLatency)
	}
}

// TestWheelLapUnderCommitStall holds commit frozen for multiple wheel
// circumferences (a faultinject-style CommitStall) while a long-latency
// divide is in flight; the pipeline must neither lose the completion nor
// commit out of order once the stall lifts.
func TestWheelLapUnderCommitStall(t *testing.T) {
	prog := asm.MustAssemble("t.s", `
main:
	li t0, 1000000
	li t1, 7
	div t2, t0, t1
	addi t3, t2, 1
	halt t3            # 142857+1
`)
	cfg := DefaultConfig()
	cfg.WatchdogCycles = -1
	cfg.CommitStall = func(cycle uint64) bool { return cycle < 3*wheelSize }
	c, err := New(prog, cfg, NopPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.ExitCode != 142858 {
		t.Errorf("exit = %d, want 142858", res.ExitCode)
	}
	if res.Stats.Cycles < 3*wheelSize {
		t.Errorf("cycles = %d, want >= %d (commit was frozen that long)", res.Stats.Cycles, 3*wheelSize)
	}
}
