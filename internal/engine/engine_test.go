package engine

import (
	"context"
	"errors"
	"testing"
	"time"

	"levioso/internal/cpu"
	"levioso/internal/ref"
	"levioso/internal/simerr"
)

// histSrc is a small branchy kernel: deterministic output, real annotations.
const histSrc = `
var h[16];
func main() {
	var i;
	var s = 7;
	for (i = 0; i < 400; i = i + 1) {
		s = s * 1103515245 + 12345;
		var k = (s >> 16) & 15;
		if (h[k] < 9) { h[k] = h[k] + 1; }
	}
	var acc = 0;
	for (i = 0; i < 16; i = i + 1) { acc = acc + h[i]; }
	print(acc);
	return acc & 255;
}`

// spinSrc runs long enough for deadline/cancellation tests to interrupt it.
const spinSrc = `
func main() {
	var i;
	var s = 1;
	for (i = 0; i < 200000000; i = i + 1) { s = s + i; }
	return 0;
}`

func TestRunFromSourceVerified(t *testing.T) {
	for _, pol := range []string{"unsafe", "levioso"} {
		res, err := Run(context.Background(), Request{
			Name: "hist.lc", Source: histSrc, Verify: true,
			Overrides: Overrides{Policy: pol},
		})
		if err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		if res.Output == "" || res.Stats.Committed == 0 {
			t.Fatalf("%s: empty result: %+v", pol, res)
		}
		if res.Annotation == nil || res.Annotation.Branches == 0 {
			t.Fatalf("%s: compiled run carries no annotation stats", pol)
		}
	}
}

func TestRunBinaryMatchesSource(t *testing.T) {
	prog, _, err := Compile("hist.lc", histSrc, true)
	if err != nil {
		t.Fatal(err)
	}
	img, err := prog.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	fromSrc, err := Run(context.Background(), Request{Source: histSrc, Overrides: Overrides{Policy: "levioso"}})
	if err != nil {
		t.Fatal(err)
	}
	fromBin, err := Run(context.Background(), Request{Binary: img, Overrides: Overrides{Policy: "levioso"}})
	if err != nil {
		t.Fatal(err)
	}
	if fromSrc.ExitCode != fromBin.ExitCode || fromSrc.Output != fromBin.Output ||
		fromSrc.Stats != fromBin.Stats {
		t.Fatalf("binary round-trip diverges from source run:\n src=%+v\n bin=%+v", fromSrc, fromBin)
	}
}

func TestRunReferenceModel(t *testing.T) {
	sim, err := Run(context.Background(), Request{Source: histSrc})
	if err != nil {
		t.Fatal(err)
	}
	rres, err := Run(context.Background(), Request{Source: histSrc, UseRef: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rres.Ref || rres.RefInsts == 0 {
		t.Fatalf("reference run not marked: %+v", rres)
	}
	if rres.ExitCode != sim.ExitCode || rres.Output != sim.Output {
		t.Fatalf("ref/core mismatch: ref=%+v core=%+v", rres, sim)
	}
}

func TestResolveRejectsBadInputCounts(t *testing.T) {
	for _, req := range []Request{
		{},                                   // no input
		{Source: histSrc, Binary: []byte{1}}, // two inputs
	} {
		if _, _, err := Resolve(context.Background(), &req); !errors.Is(err, simerr.ErrBuild) {
			t.Fatalf("want typed build error, got %v", err)
		}
	}
}

func TestSimulateUnknownPolicy(t *testing.T) {
	prog, _, err := Compile("hist.lc", histSrc, true)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Simulate(context.Background(), prog, cpu.DefaultConfig(), "nonesuch")
	if !errors.Is(err, simerr.ErrBuild) {
		t.Fatalf("want build error for unknown policy, got %v", err)
	}
}

func TestRunDeadline(t *testing.T) {
	_, err := Run(context.Background(), Request{
		Source: spinSrc, Overrides: Overrides{Deadline: 10 * time.Millisecond},
	})
	if !errors.Is(err, simerr.ErrDeadline) {
		t.Fatalf("want deadline error, got %v", err)
	}
}

func TestReferenceCancellation(t *testing.T) {
	prog, _, err := Compile("spin.lc", spinSrc, true)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := Reference(ctx, prog, ref.Limits{}); !errors.Is(err, simerr.ErrDeadline) {
		t.Fatalf("want deadline error from reference run, got %v", err)
	}
}

func TestVerifyAgainst(t *testing.T) {
	want := ref.Result{ExitCode: 3, Output: "ok"}
	if err := VerifyAgainst(3, "ok", want); err != nil {
		t.Fatal(err)
	}
	if err := VerifyAgainst(3, "bad", want); !errors.Is(err, simerr.ErrDivergence) {
		t.Fatalf("want divergence, got %v", err)
	}
}

func TestCacheKey(t *testing.T) {
	prog, _, err := Compile("hist.lc", histSrc, true)
	if err != nil {
		t.Fatal(err)
	}
	cfg := cpu.DefaultConfig()
	k1, ok := CacheKey(prog, "levioso", cfg, false, false)
	if !ok || k1 == "" {
		t.Fatal("clean config should be cacheable")
	}
	k2, ok := CacheKey(prog, "levioso", cfg, false, false)
	if !ok || k2 != k1 {
		t.Fatalf("key not stable: %s vs %s", k1, k2)
	}
	if k3, _ := CacheKey(prog, "delay", cfg, false, false); k3 == k1 {
		t.Fatal("policy not keyed")
	}
	cfg2 := cfg
	cfg2.ROBSize = 96
	if k4, _ := CacheKey(prog, "levioso", cfg2, false, false); k4 == k1 {
		t.Fatal("config not keyed")
	}
	if k5, _ := CacheKey(prog, "levioso", cfg, true, false); k5 == k1 {
		t.Fatal("run mode not keyed")
	}
	hooked := cfg
	hooked.CommitStall = func(uint64) bool { return false }
	if _, ok := CacheKey(prog, "levioso", hooked, false, false); ok {
		t.Fatal("hooked config must not be cacheable")
	}
}

func TestBuildConfigOverrides(t *testing.T) {
	req := Request{Overrides: Overrides{ROBSize: 320, MaxCycles: 1234}}
	cfg := req.BuildConfig()
	if cfg.ROBSize != 320 || cfg.MaxCycles != 1234 {
		t.Fatalf("overrides not applied: %+v", cfg)
	}
	if cfg.NumPhysRegs < 32+320 {
		t.Fatalf("phys regs not widened for ROB: %d", cfg.NumPhysRegs)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

// panicMem is a memory system whose every visible load panics.
type panicMem struct{ cpu.MemSystem }

func (panicMem) LoadLatency(uint64) int { panic("injected load fault") }

// TestSimulateDoesNotPoolPanickedCore checks that a core whose run
// panicked never returns to cpu.New's pool, while one whose run completed
// does. Cores are told apart by the memory hierarchy they carry, which a
// recycled core reuses.
func TestSimulateDoesNotPoolPanickedCore(t *testing.T) {
	prog, _, err := Compile("hist.lc", histSrc, true)
	if err != nil {
		t.Fatal(err)
	}
	var built cpu.MemSystem
	config := func(panics bool) cpu.Config {
		cfg := cpu.DefaultConfig()
		cfg.WrapMem = func(ms cpu.MemSystem) cpu.MemSystem {
			built = ms
			if panics {
				return panicMem{ms}
			}
			return ms
		}
		return cfg
	}
	// newHier builds n cores without releasing them and returns the
	// hierarchies they carry.
	newHier := func(n int) []cpu.MemSystem {
		var out []cpu.MemSystem
		for range n {
			if _, err := cpu.New(prog, config(false), cpu.NopPolicy{}); err != nil {
				t.Fatal(err)
			}
			out = append(out, built)
		}
		return out
	}

	// A completed run pools its core (sync.Pool may drop one, at random
	// under the race detector, so allow a few tries).
	pooled := false
	for try := 0; try < 20 && !pooled; try++ {
		if _, err := Simulate(context.Background(), prog, config(false), "levioso"); err != nil {
			t.Fatal(err)
		}
		ran := built
		pooled = newHier(1)[0] == ran
	}
	if !pooled {
		t.Fatal("no completed run's core was reused")
	}

	_, err = Simulate(context.Background(), prog, config(true), "levioso")
	if !errors.Is(err, simerr.ErrPanic) {
		t.Fatalf("want a recovered panic, got %v", err)
	}
	panicked := built
	for _, h := range newHier(4) {
		if h == panicked {
			t.Fatal("cpu.New reused the core whose run panicked")
		}
	}
}
