package levioso

// One benchmark per table/figure in the paper's evaluation (see DESIGN.md's
// experiment index). Each bench regenerates its table/figure at test scale
// and reports the headline quantities as custom metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the entire evaluation. cmd/levbench runs the same experiments
// at full reference scale.

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"levioso/internal/attack"
	"levioso/internal/core"
	"levioso/internal/cpu"
	"levioso/internal/dispatch"
	"levioso/internal/engine"
	"levioso/internal/harness"
	"levioso/internal/obs"
	"levioso/internal/secure"
	"levioso/internal/workloads"
)

// BenchmarkTableConfig regenerates T1 (simulated core configuration).
func BenchmarkTableConfig(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := harness.ExpConfig(cpu.DefaultConfig()); len(out) == 0 {
			b.Fatal("empty config table")
		}
	}
}

// BenchmarkFigOverhead regenerates F1 (the headline per-benchmark overhead
// figure) and reports each policy's geomean overhead in percent.
func BenchmarkFigOverhead(b *testing.B) {
	spec := harness.DefaultSpec()
	spec.Size = workloads.SizeTest
	for i := 0; i < b.N; i++ {
		runs, err := harness.Sweep(spec)
		if err != nil {
			b.Fatal(err)
		}
		ix := harness.NewIndex(runs)
		for _, p := range spec.Policies[1:] {
			b.ReportMetric(100*ix.GeoMeanOverhead(p, "unsafe"), p+"-ov%")
		}
	}
}

// BenchmarkFigOverheadPerPolicy gives per-policy sub-benchmarks over the
// whole suite (cycles are the benchmark cost itself).
func BenchmarkFigOverheadPerPolicy(b *testing.B) {
	for _, pol := range secure.EvalNames() {
		pol := pol
		b.Run(pol, func(b *testing.B) {
			spec := harness.DefaultSpec()
			spec.Size = workloads.SizeTest
			spec.Policies = []string{pol}
			spec.Verify = false
			var cycles uint64
			for i := 0; i < b.N; i++ {
				runs, err := harness.Sweep(spec)
				if err != nil {
					b.Fatal(err)
				}
				cycles = 0
				for _, r := range runs {
					cycles += r.Stats.Cycles
				}
			}
			b.ReportMetric(float64(cycles), "sim-cycles")
		})
	}
}

// BenchmarkFigRestricted regenerates F2 (fraction of transmitters
// restricted) and reports the means.
func BenchmarkFigRestricted(b *testing.B) {
	spec := harness.DefaultSpec()
	spec.Size = workloads.SizeTest
	spec.Policies = []string{"unsafe", "delay", "levioso"}
	for i := 0; i < b.N; i++ {
		runs, err := harness.Sweep(spec)
		if err != nil {
			b.Fatal(err)
		}
		ix := harness.NewIndex(runs)
		var spec_, lev float64
		n := 0
		for _, w := range ix.Workloads {
			u, _ := ix.Stats(w, "unsafe")
			l, _ := ix.Stats(w, "levioso")
			spec_ += u.SpecFrac()
			lev += l.RestrictedFrac()
			n++
		}
		b.ReportMetric(100*spec_/float64(n), "conservative-%")
		b.ReportMetric(100*lev/float64(n), "levioso-%")
	}
}

// BenchmarkFigROBSweep regenerates F3 (overhead vs window size) at three
// window sizes.
func BenchmarkFigROBSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out, err := harness.ExpROBSweep(context.Background(), harness.NewRunOpts(workloads.SizeTest), []int{96, 192, 320})
		if err != nil {
			b.Fatal(err)
		}
		if len(out) == 0 {
			b.Fatal("empty")
		}
	}
}

// BenchmarkFigMispredict regenerates F4 (overhead vs predictor quality).
func BenchmarkFigMispredict(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out, err := harness.ExpMispredict(context.Background(), harness.NewRunOpts(workloads.SizeTest), []float64{0, 0.05, 0.15})
		if err != nil {
			b.Fatal(err)
		}
		if len(out) == 0 {
			b.Fatal("empty")
		}
	}
}

// BenchmarkTableSecurity regenerates T2 (the attack matrix) and reports the
// number of policies that leaked each attack.
func BenchmarkTableSecurity(b *testing.B) {
	policies := append(append([]string{}, secure.EvalNames()...), "taint")
	for i := 0; i < b.N; i++ {
		outcomes, err := attack.Run(policies, nil)
		if err != nil {
			b.Fatal(err)
		}
		v1, ct := 0, 0
		for _, o := range outcomes {
			if o.V1Leaks() {
				v1++
			}
			if o.CTLeaks() {
				ct++
			}
		}
		b.ReportMetric(float64(v1), "v1-leaky-policies")
		b.ReportMetric(float64(ct), "ct-leaky-policies")
	}
}

// BenchmarkFigAblation regenerates F5 (Levioso component ablation).
func BenchmarkFigAblation(b *testing.B) {
	spec := harness.DefaultSpec()
	spec.Size = workloads.SizeTest
	spec.Policies = []string{"unsafe", "levioso-ctrl", "levioso"}
	for i := 0; i < b.N; i++ {
		runs, err := harness.Sweep(spec)
		if err != nil {
			b.Fatal(err)
		}
		ix := harness.NewIndex(runs)
		b.ReportMetric(100*ix.GeoMeanOverhead("levioso-ctrl", "unsafe"), "ctrl-only-ov%")
		b.ReportMetric(100*ix.GeoMeanOverhead("levioso", "unsafe"), "full-ov%")
	}
}

// BenchmarkTableCompiler regenerates T3 (annotation statistics) and reports
// the mean annotated fraction.
func BenchmarkTableCompiler(b *testing.B) {
	for i := 0; i < b.N; i++ {
		total, annotated := 0, 0
		for _, w := range workloads.All() {
			prog, err := w.Build(workloads.SizeTest)
			if err != nil {
				b.Fatal(err)
			}
			st, err := core.Annotate(prog)
			if err != nil {
				b.Fatal(err)
			}
			total += st.Branches
			annotated += st.Annotated
		}
		b.ReportMetric(100*float64(annotated)/float64(total), "annotated-%")
	}
}

// BenchmarkSimThroughput measures raw simulator speed (simulated
// instructions per wall-clock second) on one workload per policy — useful
// for tracking the cost of the defenses' bookkeeping itself.
func BenchmarkSimThroughput(b *testing.B) {
	w, _ := workloads.ByName("fsm")
	prog := w.MustBuild(workloads.SizeTest)
	for _, pol := range []string{"unsafe", "levioso"} {
		pol := pol
		b.Run(pol, func(b *testing.B) {
			var insts uint64
			for i := 0; i < b.N; i++ {
				c, err := cpu.New(prog, cpu.DefaultConfig(), secure.MustNew(pol))
				if err != nil {
					b.Fatal(err)
				}
				res, err := c.Run()
				if err != nil {
					b.Fatal(err)
				}
				insts = res.Stats.Committed
			}
			b.ReportMetric(float64(insts*uint64(b.N))/b.Elapsed().Seconds(), "sim-insts/s")
		})
	}
}

// benchJSONPath, when set, makes BenchmarkHotLoop write its measurements to
// the named file in the BENCH_cpu.json format documented in EXPERIMENTS.md.
// `make bench` passes -benchjson=BENCH_cpu.json; the file is the trajectory
// point future perf PRs are compared against.
var benchJSONPath = flag.String("benchjson", "", "write BenchmarkHotLoop results to this JSON file")

// hotLoopEntry is one (workload, policy) measurement in BENCH_cpu.json.
type hotLoopEntry struct {
	Workload      string  `json:"workload"`
	Policy        string  `json:"policy"`
	Size          string  `json:"size"`
	SimCycles     uint64  `json:"sim_cycles"`
	SimInsts      uint64  `json:"sim_insts"`
	WallNs        int64   `json:"wall_ns"`
	CyclesPerSec  float64 `json:"sim_cycles_per_sec"`
	InstsPerSec   float64 `json:"sim_insts_per_sec"`
	NsPerCycle    float64 `json:"ns_per_sim_cycle"`
	AllocsPerInst float64 `json:"allocs_per_committed_inst"`
	BytesPerInst  float64 `json:"bytes_per_committed_inst"`
}

// benchTrajectory is the on-disk shape of BENCH_cpu.json: an append-only
// sequence of timestamped reports, oldest first. `make bench` appends one
// point per invocation instead of overwriting, so the file records the
// repository's performance trajectory and the CI bench-smoke always has the
// previously committed point to compare against.
type benchTrajectory struct {
	Entries []benchPoint `json:"entries"`
}

// benchPoint is one trajectory entry: a hotLoopReport plus when it was taken.
type benchPoint struct {
	Timestamp string `json:"timestamp"` // RFC 3339 UTC; "" for pre-trajectory legacy imports
	hotLoopReport
}

type hotLoopReport struct {
	GeneratedBy string  `json:"generated_by"`
	GoVersion   string  `json:"go_version"`
	MeanCPS     float64 `json:"suite_mean_sim_cycles_per_sec"`
	MeanAllocs  float64 `json:"suite_mean_allocs_per_committed_inst"`
	// Per-cell simulate wall-clock quantiles over every measured
	// (workload, policy) cell, estimated from an internal/obs latency
	// histogram — the same bucket layout levserve's /metrics exports, so
	// the offline and the served numbers are directly comparable.
	SimLatencyP50 float64        `json:"sim_latency_p50_s"`
	SimLatencyP95 float64        `json:"sim_latency_p95_s"`
	SimLatencyP99 float64        `json:"sim_latency_p99_s"`
	Measurements  []hotLoopEntry `json:"measurements"`
}

// measureHotLoop runs one (workload, policy) cell once and returns its
// steady-state measurement. Core construction is excluded from both the
// timing and the allocation accounting: the metric is the cost of simulating
// a cycle, not of building a core.
func measureHotLoop(b *testing.B, w workloads.Workload, size workloads.Size, pol string) hotLoopEntry {
	b.Helper()
	prog := w.MustBuild(size)
	c, err := cpu.New(prog, cpu.DefaultConfig(), secure.MustNew(pol))
	if err != nil {
		b.Fatal(err)
	}
	var before, after runtime.MemStats
	// Collect construction garbage (program build, core tables, earlier
	// cells) before the timed region so a GC pause triggered by setup debt
	// is not charged to the simulator's hot loop.
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	res, err := c.Run()
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		b.Fatal(err)
	}
	sizeName := "test"
	if size == workloads.SizeRef {
		sizeName = "ref"
	}
	e := hotLoopEntry{
		Workload:  w.Name,
		Policy:    pol,
		Size:      sizeName,
		SimCycles: res.Stats.Cycles,
		SimInsts:  res.Stats.Committed,
		WallNs:    wall.Nanoseconds(),
	}
	sec := wall.Seconds()
	if sec > 0 {
		e.CyclesPerSec = float64(res.Stats.Cycles) / sec
		e.InstsPerSec = float64(res.Stats.Committed) / sec
	}
	if res.Stats.Cycles > 0 {
		e.NsPerCycle = float64(wall.Nanoseconds()) / float64(res.Stats.Cycles)
	}
	if res.Stats.Committed > 0 {
		e.AllocsPerInst = float64(after.Mallocs-before.Mallocs) / float64(res.Stats.Committed)
		e.BytesPerInst = float64(after.TotalAlloc-before.TotalAlloc) / float64(res.Stats.Committed)
	}
	return e
}

// BenchmarkHotLoop measures the simulator's raw hot-loop performance over the
// twelve-kernel suite (the "medium" scale: every kernel at test inputs) under
// the unprotected and the Levioso cores, reporting simulated cycles per
// wall-clock second, nanoseconds per simulated cycle, and heap allocations
// per committed instruction. With -benchjson=FILE the last iteration's
// measurements are written as BENCH_cpu.json (see EXPERIMENTS.md).
func BenchmarkHotLoop(b *testing.B) {
	var report hotLoopReport
	for _, pol := range []string{"unsafe", "levioso"} {
		pol := pol
		b.Run(pol, func(b *testing.B) {
			var entries []hotLoopEntry
			for i := 0; i < b.N; i++ {
				entries = entries[:0]
				for _, w := range workloads.All() {
					entries = append(entries, measureHotLoop(b, w, workloads.SizeTest, pol))
				}
			}
			var cps, allocs float64
			for _, e := range entries {
				cps += e.CyclesPerSec
				allocs += e.AllocsPerInst
			}
			n := float64(len(entries))
			b.ReportMetric(cps/n, "sim-cycles/s")
			b.ReportMetric(allocs/n, "allocs/inst")
			report.Measurements = append(report.Measurements, entries...)
		})
	}
	if *benchJSONPath != "" {
		report.GeneratedBy = "go test -bench=HotLoop -benchjson (make bench)"
		report.GoVersion = runtime.Version()
		var cps, allocs float64
		lat := obs.NewRegistry().Histogram("sim_latency_seconds",
			"per-cell simulate wall time", obs.LatencyBuckets())
		for _, e := range report.Measurements {
			cps += e.CyclesPerSec
			allocs += e.AllocsPerInst
			lat.Observe(float64(e.WallNs) / 1e9)
		}
		if n := float64(len(report.Measurements)); n > 0 {
			report.MeanCPS = cps / n
			report.MeanAllocs = allocs / n
			snap := lat.Snapshot()
			report.SimLatencyP50 = snap.Quantile(0.50)
			report.SimLatencyP95 = snap.Quantile(0.95)
			report.SimLatencyP99 = snap.Quantile(0.99)
		}
		if err := appendBenchPoint(*benchJSONPath, report); err != nil {
			b.Fatal(err)
		}
	}
}

// appendBenchPoint appends one timestamped report to the trajectory file at
// path, creating it when absent and converting a legacy flat-report file
// (the pre-trajectory format) into the first, timestamp-less entry.
func appendBenchPoint(path string, report hotLoopReport) error {
	var traj benchTrajectory
	if raw, err := os.ReadFile(path); err == nil {
		if jerr := json.Unmarshal(raw, &traj); jerr != nil || len(traj.Entries) == 0 {
			var legacy benchPoint
			if jerr := json.Unmarshal(raw, &legacy); jerr == nil && len(legacy.Measurements) > 0 {
				traj.Entries = []benchPoint{legacy}
			}
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	traj.Entries = append(traj.Entries, benchPoint{
		Timestamp:     time.Now().UTC().Format(time.RFC3339),
		hotLoopReport: report,
	})
	out, err := json.MarshalIndent(&traj, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// BenchmarkBatch measures suite throughput through the dispatch
// coordinator: every (workload, policy) cell of the hot-loop suite is
// executed as one cell on a GOMAXPROCS-sized pool of in-process workers, the
// path levserve's simulate and batch requests take. The result cache is off,
// so every iteration simulates every cell. The aggregate metric is total
// simulated cycles per wall-clock second across the population.
func BenchmarkBatch(b *testing.B) {
	var cells []*dispatch.Cell
	for _, pol := range []string{"unsafe", "levioso"} {
		for _, w := range workloads.All() {
			cells = append(cells, &dispatch.Cell{
				Name:      w.Name,
				Program:   w.MustBuild(workloads.SizeTest),
				Overrides: engine.Overrides{Policy: pol},
			})
		}
	}
	co, err := dispatch.New(context.Background(), dispatch.Config{
		Workers: runtime.GOMAXPROCS(0), CacheEntries: -1, Registry: obs.NewRegistry(),
	})
	if err != nil {
		b.Fatal(err)
	}
	defer co.Close()
	var cycles atomic.Uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for _, c := range cells {
			wg.Add(1)
			go func(c *dispatch.Cell) {
				defer wg.Done()
				res, err := co.Execute(context.Background(), c)
				if err != nil {
					b.Errorf("cell %s/%s: %v", c.Name, c.Overrides.Policy, err)
					return
				}
				cycles.Add(res.Stats.Cycles)
			}(c)
		}
		wg.Wait()
	}
	b.ReportMetric(float64(cycles.Load())/b.Elapsed().Seconds(), "sim-cycles/s")
}

// BenchmarkAnnotatePass measures the compiler pass itself.
func BenchmarkAnnotatePass(b *testing.B) {
	w, _ := workloads.ByName("qsort")
	prog := w.MustBuild(workloads.SizeTest)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Annotate(prog); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigBDTSweep regenerates F6 (overhead vs Branch Dependency Table
// size — the hardware-cost knob).
func BenchmarkFigBDTSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out, err := harness.ExpBDTSweep(context.Background(), harness.NewRunOpts(workloads.SizeTest), []int{8, 32, 64})
		if err != nil {
			b.Fatal(err)
		}
		if len(out) == 0 {
			b.Fatal("empty")
		}
	}
}

// BenchmarkTableCharacterization regenerates T1b (workload characterization).
func BenchmarkTableCharacterization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out, err := harness.ExpCharacterization(context.Background(), harness.NewRunOpts(workloads.SizeTest))
		if err != nil {
			b.Fatal(err)
		}
		if len(out) == 0 {
			b.Fatal("empty")
		}
	}
}
