package main

import (
	"context"
	"io"
	"os"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for levperf as the Proc transport's
// worker subprocess.
func TestMain(m *testing.M) {
	if len(os.Args) == 2 && os.Args[1] == "-worker" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// smokeSizes runs every phase with a handful of operations.
var smokeSizes = sizes{
	setupReps: 2, sweepKernels: 2, serveWarm: 4, servePool: 16, batchWarm: 2,
	batchPool: 8, fuzzCount: 3, fuzzWarm: 2, probeKernels: 1, probeReps: 3, probeCases: 2,
}

// TestSmoke runs every workload untraced and traced at tiny sizes and checks
// that the outputs pass, that every metric BENCHMARK.json names is emitted
// with its unit (and nothing else is), and that the exact metrics repeat
// across the traced runs, which all use the same seed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec, err := loadSpec("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, levperf runs %s", got, want)
	}
	runOnce := func(w workload, trace bool) result {
		t.Helper()
		o := options{seed: 1, seconds: 0.2, trace: trace, workDir: t.TempDir(), sizes: smokeSizes}
		res, err := runOne(context.Background(), w, o, io.Discard)
		if err != nil {
			t.Fatalf("%s trace=%t: %v", w.name, trace, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
		}
		return res
	}
	emits := func(w string, res result, want []specMetric, positive bool) {
		t.Helper()
		names := map[string]bool{}
		for _, m := range want {
			names[m.Name] = true
			got, ok := res.Metrics[m.Name]
			switch {
			case !ok:
				t.Errorf("%s: metric %s not emitted", w, m.Name)
			case got.Unit != m.Unit:
				t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", w, m.Name, got.Unit, m.Unit)
			case positive && !(got.Value > 0):
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, m.Name, got.Value)
			}
		}
		for name := range res.Metrics {
			if !names[name] {
				t.Errorf("%s: metric %s is not in BENCHMARK.json", w, name)
			}
		}
	}
	exact := map[string]float64{}
	for _, w := range allWorkloads {
		emits(w.name, runOnce(w, false), spec.EndToEnd, true)
		traced := runOnce(w, true)
		emits(w.name, traced, spec.PerLayer, false)
		for _, name := range []string{"model.levioso_overhead_pct", "fuzz.cov_bits", "journal.state_bytes"} {
			v := traced.Metrics[name].Value
			if prev, ok := exact[name]; v == 0 || ok && v != prev {
				t.Errorf("%s: %s = %v, earlier traced runs with the same seed gave %v; want equal and non-zero", w.name, name, v, prev)
			}
			exact[name] = v
		}
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4), which the benchmark's spread is judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 3}, 1, 3, 5},
		{[]float64{4, 1}, 0.25, 2.5, 4.75},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

// TestJudgePairsBySeed checks that -compare matches runs by seed, not by
// position: exact metrics are compared for every seed both sides ran, and a
// comparison with no seed in common says so instead of passing.
func TestJudgePairsBySeed(t *testing.T) {
	exactM := specMetric{Name: "fuzz.cov_bits", Better: "higher"}
	bound := 0.10
	timed := specMetric{Name: "ops_per_s", Better: "higher", Bound: &bound}
	s := func(pairs ...float64) *series {
		out := &series{}
		for i := 0; i < len(pairs); i += 2 {
			out.seeds = append(out.seeds, uint64(pairs[i]))
			out.vals = append(out.vals, pairs[i+1])
		}
		return out
	}
	for _, tc := range []struct {
		name string
		m    specMetric
		a, b *series
		want string
	}{
		{"same values, other seed order", exactM, s(1, 10, 2, 20, 3, 30), s(3, 30, 1, 10, 2, 20), "exact"},
		{"a common seed differs", exactM, s(1, 10, 2, 20), s(2, 21, 4, 40), "MISMATCH"},
		{"runs of one seed differ", exactM, s(1, 10, 1, 11), s(1, 10), "MISMATCH"},
		{"more runs on one side", exactM, s(1, 10, 2, 20, 3, 30), s(2, 20), "exact"},
		{"no common seed", exactM, s(1, 10, 2, 20), s(3, 10, 4, 20), "no common seed"},
		{"steady, slower by more than the bound", timed, s(1, 100, 2, 101, 3, 100, 4, 101), s(4, 85, 3, 86, 2, 85, 1, 86), "REGRESSED"},
		{"steady, within the bound", timed, s(1, 100, 2, 101, 3, 100, 4, 101), s(1, 98, 2, 99, 3, 98, 4, 99), "within bound"},
	} {
		if got := judge(tc.m, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: judge = %q, want %q", tc.name, got, tc.want)
		}
	}
	wins, pairs := winFraction("higher", s(1, 10, 2, 20, 5, 1), s(2, 21, 1, 9, 3, 99))
	if wins != 1 || pairs != 2 {
		t.Errorf("winFraction = %d of %d, want 1 of 2 (seed 2 won, seed 1 lost, seeds 3 and 5 unpaired)", wins, pairs)
	}
}
