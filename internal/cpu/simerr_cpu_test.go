package cpu

// Typed-error coverage for the core's abort paths: every way a run can die
// must surface a *simerr.RunError carrying the right kind, classification
// and run context, because the sweep supervisor's retry/degrade decisions
// key off them.

import (
	"context"
	"errors"
	"strings"
	"testing"

	"levioso/internal/asm"
	"levioso/internal/lang"
	"levioso/internal/simerr"
)

const busyLoopSrc = `
main:
	li t0, 100000
l:	addi t0, t0, -1
	bnez t0, l
	halt zero
`

func TestWatchdogTypedError(t *testing.T) {
	prog := asm.MustAssemble("t.s", busyLoopSrc)
	cfg := DefaultConfig()
	cfg.WatchdogCycles = 500
	// Freeze commit unconditionally: the pipeline keeps fetching and issuing
	// but nothing retires, which is exactly the hang the watchdog guards.
	cfg.CommitStall = func(uint64) bool { return true }
	c, err := New(prog, cfg, NopPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Run()
	if !errors.Is(err, simerr.ErrWatchdog) {
		t.Fatalf("want ErrWatchdog, got %v", err)
	}
	var re *simerr.RunError
	if !errors.As(err, &re) {
		t.Fatalf("no RunError in chain: %v", err)
	}
	if re.Transient() {
		t.Error("watchdog must be permanent (deterministic sim reproduces it)")
	}
	if re.Cycle == 0 {
		t.Error("watchdog error lost the cycle context")
	}
	// deadlockInfo describes the stuck ROB head so failures are debuggable
	// from the error string alone.
	if !strings.Contains(re.Detail, "head seq=") && !strings.Contains(re.Detail, "window empty") {
		t.Errorf("watchdog detail lacks deadlock info: %q", re.Detail)
	}
}

func TestCycleLimitTypedError(t *testing.T) {
	prog := asm.MustAssemble("t.s", busyLoopSrc)
	cfg := DefaultConfig()
	cfg.MaxCycles = 100
	c, err := New(prog, cfg, NopPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Run()
	if !errors.Is(err, simerr.ErrCycleLimit) {
		t.Fatalf("want ErrCycleLimit, got %v", err)
	}
	if simerr.Transient(err) {
		t.Error("cycle limit must be permanent")
	}
	var re *simerr.RunError
	if !errors.As(err, &re) || !strings.Contains(re.Detail, "cycle limit") {
		t.Errorf("cycle-limit detail missing: %v", err)
	}
}

func TestInstLimitTypedError(t *testing.T) {
	prog := asm.MustAssemble("t.s", busyLoopSrc)
	cfg := DefaultConfig()
	cfg.MaxInsts = 50
	c, err := New(prog, cfg, NopPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Run()
	if !errors.Is(err, simerr.ErrInstLimit) {
		t.Fatalf("want ErrInstLimit, got %v", err)
	}
}

func TestRunContextDeadlineTypedError(t *testing.T) {
	prog := asm.MustAssemble("t.s", busyLoopSrc)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already expired: the first deadline check must abort the run
	c, err := New(prog, DefaultConfig(), NopPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.RunContext(ctx)
	if !errors.Is(err, simerr.ErrDeadline) {
		t.Fatalf("want ErrDeadline, got %v", err)
	}
	if !simerr.Transient(err) {
		t.Error("deadline must be transient (a slow host is retryable)")
	}
	if !errors.Is(err, context.Canceled) {
		t.Error("deadline error must wrap the context cause")
	}
}

// TestRunContextCancelsAcrossIdleSkips is the regression test for a
// cancellation check that fired only when the cycle counter landed exactly
// on a multiple of the check interval. Under a fence policy this loop's
// wait-only cycles are skipped in jumps that never land on one, so a
// cancelled run kept going until its cycle limit.
func TestRunContextCancelsAcrossIdleSkips(t *testing.T) {
	prog, err := lang.Compile("spin.lc", `
func main() {
	var i;
	var s = 1;
	for (i = 0; i < 200000000; i = i + 1) { s = s + i; }
	return 0;
}`)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.MaxCycles = 2_000_000
	c, err := New(prog, cfg, &fenceTestPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.RunContext(ctx); !errors.Is(err, simerr.ErrDeadline) {
		t.Fatalf("cancelled run: want ErrDeadline, got %v", err)
	}
	if c.CycleCount() > 2<<13 {
		t.Errorf("cancellation seen at cycle %d, past the second check interval", c.CycleCount())
	}
}

func TestRunContextNilAndBackgroundComplete(t *testing.T) {
	prog := asm.MustAssemble("t.s", busyLoopSrc)
	for _, ctx := range []context.Context{nil, context.Background()} {
		c, err := New(prog, DefaultConfig(), NopPolicy{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.RunContext(ctx)
		if err != nil {
			t.Fatalf("unbounded RunContext failed: %v", err)
		}
		if res.ExitCode != 0 {
			t.Errorf("exit = %d, want 0", res.ExitCode)
		}
	}
}
