package faultinject

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"levioso/internal/dispatch"
	"levioso/internal/engine"
	"levioso/internal/isa"
	"levioso/internal/obs"
)

// chaosSources are distinct programs so the batch isn't one cache entry.
func chaosSources() []string {
	out := make([]string, 5)
	for i := range out {
		out[i] = fmt.Sprintf(`
func main() {
	var i;
	var s = %d;
	for (i = 0; i < 40; i = i + 1) { s = s * 31 + i; }
	print(s & 2047);
	return s & 63;
}`, 7+i*13)
	}
	return out
}

// TestChaosBatchGracefulDegradation is the graceful-degradation proof for
// the dispatch tier: a 100-cell batch runs under a seeded storm of
// transport faults — worker kills, stalls, corrupted frames, delayed
// replies — and must still complete with results bit-identical to a
// fault-free run, no cell lost or duplicated, inside a bounded wall-clock
// budget, with every retry/restart/breaker event visible in a /metrics
// exposition that ValidateProm accepts.
func TestChaosBatchGracefulDegradation(t *testing.T) {
	srcs := chaosSources()
	policies := []string{"unsafe", "fence", "delay", "levioso"}
	type cellSpec struct {
		prog   *isa.Program
		policy string
	}
	var specs []cellSpec
	for _, src := range srcs {
		prog, _, err := engine.Compile("chaos.lc", src, true)
		if err != nil {
			t.Fatal(err)
		}
		for _, pol := range policies {
			for rep := 0; rep < 5; rep++ { // 5×4×5 = 100 cells, repeats exercise the cache
				specs = append(specs, cellSpec{prog, pol})
			}
		}
	}
	if len(specs) != 100 {
		t.Fatalf("batch size %d, want 100", len(specs))
	}

	// Fault-free ground truth, one engine.Run per distinct (program, policy).
	truth := make(map[*isa.Program]map[string]*engine.Result)
	for _, sp := range specs {
		if truth[sp.prog] == nil {
			truth[sp.prog] = make(map[string]*engine.Result)
		}
		if truth[sp.prog][sp.policy] == nil {
			want, err := engine.Run(context.Background(), engine.Request{
				Name: "chaos.lc", Program: sp.prog, Verify: true,
				Overrides: engine.Overrides{Policy: sp.policy},
			})
			if err != nil {
				t.Fatal(err)
			}
			truth[sp.prog][sp.policy] = want
		}
	}

	// The storm: every transport failure mode armed, seeded, front-loaded
	// on the first 150 calls so the run provably drains.
	ti := NewTransport(TransportPlan{
		Seed: 42,
		Faults: []TransportFault{
			{Kind: WorkerKill, Prob: 0.10, FirstCalls: 150},
			{Kind: WorkerStall, Prob: 0.05, FirstCalls: 150, Delay: 20 * time.Millisecond},
			{Kind: CorruptResponse, Prob: 0.10, FirstCalls: 150},
			{Kind: DelayReply, Prob: 0.15, FirstCalls: 150, Delay: 5 * time.Millisecond},
		},
	})
	reg := obs.NewRegistry()
	co, err := dispatch.New(context.Background(), dispatch.Config{
		Workers:          4,
		Spawn:            ti.Spawner(dispatch.Pipe()),
		MaxAttempts:      8,
		Backoff:          2 * time.Millisecond,
		BreakerThreshold: 3,
		BreakerCooldown:  10 * time.Millisecond,
		CrashLoopBudget:  50,
		QueueDepth:       -1,
		Registry:         reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	// Bounded completion: the storm is finite and backoffs are small, so
	// the whole batch must drain well inside the budget.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	start := time.Now()
	results := make([]*engine.Result, len(specs))
	errs := make([]error, len(specs))
	done := make(chan int)
	for i, sp := range specs {
		go func(i int, sp cellSpec) {
			results[i], errs[i] = co.Execute(ctx, &dispatch.Cell{
				Name: "chaos.lc", Program: sp.prog, Verify: true,
				Overrides: engine.Overrides{Policy: sp.policy},
			})
			done <- i
		}(i, sp)
	}
	seen := make(map[int]bool)
	for range specs {
		i := <-done
		if seen[i] {
			t.Fatalf("cell %d reported twice", i)
		}
		seen[i] = true
	}
	elapsed := time.Since(start)

	// Zero wrong results: every cell completed, bit-identical to truth.
	for i, sp := range specs {
		if errs[i] != nil {
			t.Fatalf("cell %d failed under chaos: %v", i, errs[i])
		}
		want := truth[sp.prog][sp.policy]
		got := results[i]
		if got.ExitCode != want.ExitCode || got.Output != want.Output || got.Stats != want.Stats {
			t.Fatalf("cell %d (%s) diverged from fault-free run:\n got=%+v\nwant=%+v",
				i, sp.policy, got, want)
		}
	}
	if len(seen) != 100 {
		t.Fatalf("%d cells completed, want 100", len(seen))
	}

	// The storm actually happened, and the resilience machinery shows it.
	fired := ti.Fired()
	var total uint64
	for _, n := range fired {
		total += n
	}
	if total == 0 {
		t.Fatalf("no faults fired — chaos test proved nothing: %v", fired)
	}
	st := co.Snapshot()
	// Worker kills fail their calls with transport errors, so a storm that
	// fired must have forced retries.
	if st.Retries == 0 {
		t.Fatalf("faults fired (%v) but no retries recorded: %+v", fired, st)
	}
	if fired["worker-kill"] > 0 && st.Restarts == 0 {
		t.Fatalf("workers were killed but never restarted: %+v", st)
	}
	t.Logf("chaos: %v faults, %d retries, %d restarts, %d breaker trips, %v elapsed",
		fired, st.Retries, st.Restarts, st.BreakerTrips, elapsed)

	// The whole story is on /metrics, and the exposition is well-formed.
	var buf bytes.Buffer
	if err := reg.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	families, err := obs.ValidateProm(&buf)
	if err != nil {
		t.Fatalf("metrics exposition invalid: %v", err)
	}
	for _, name := range []string{
		"dispatch_cells_total", "dispatch_retries_total", "dispatch_worker_restarts_total",
		"dispatch_breaker_trips_total", "dispatch_shed_total", "dispatch_queue_depth",
	} {
		if _, ok := families[name]; !ok {
			t.Errorf("metric family %s missing from exposition", name)
		}
	}
}
