package harness

import (
	"context"
	"strings"
	"sync"
	"testing"

	"levioso/internal/cpu"
	"levioso/internal/obs"
	"levioso/internal/workloads"
)

func TestSweepAndOverheads(t *testing.T) {
	spec := DefaultSpec()
	spec.Size = workloads.SizeTest
	runs, err := Sweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != len(spec.Workloads)*len(spec.Policies) {
		t.Fatalf("got %d runs", len(runs))
	}
	ix := NewIndex(runs)
	for _, p := range []string{"fence", "delay", "invisible", "levioso"} {
		gm := ix.GeoMeanOverhead(p, "unsafe")
		t.Logf("%-10s geomean overhead %.1f%%", p, 100*gm)
		if gm < 0 {
			t.Errorf("%s geomean overhead negative: %f", p, gm)
		}
	}
	lev := ix.GeoMeanOverhead("levioso", "unsafe")
	del := ix.GeoMeanOverhead("delay", "unsafe")
	fen := ix.GeoMeanOverhead("fence", "unsafe")
	if !(lev < del && del < fen) {
		t.Errorf("ordering violated: levioso %.3f, delay %.3f, fence %.3f", lev, del, fen)
	}
}

func TestExpConfigRenders(t *testing.T) {
	out := ExpConfig(cpu.DefaultConfig())
	for _, want := range []string{"ROB", "gshare", "L1D", "branch dependency table"} {
		if !strings.Contains(out, want) {
			t.Errorf("config table missing %q:\n%s", want, out)
		}
	}
}

func TestExpCompilerRenders(t *testing.T) {
	opt := NewRunOpts(workloads.SizeTest)
	out, err := ExpCompiler(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads.Names() {
		if !strings.Contains(out, w) {
			t.Errorf("compiler table missing %q", w)
		}
	}
	if fs := opt.Failures(); len(fs) != 0 {
		t.Errorf("clean suite reported failures: %v", fs)
	}
	if strings.Contains(out, "n/a") {
		t.Errorf("clean suite rendered degraded rows:\n%s", out)
	}
}

func TestRunExperimentUnknown(t *testing.T) {
	var out strings.Builder
	err := RunExperiments(context.Background(), &out, []string{ExpConfigID, "bogus"}, NewRunOpts(workloads.SizeTest))
	if err == nil {
		t.Error("unknown experiment accepted")
	}
	if out.Len() != 0 {
		t.Errorf("reports written before the unknown id was rejected:\n%s", out.String())
	}
}

// TestPlanSimulatesEachCellOnce: F1 and F2 planned together simulate F1's
// 84 cells (12 kernels x 7 eval policies) once each; F2's 36 are among them.
// Run as two sweeps, they took 120 attempts.
func TestPlanSimulatesEachCellOnce(t *testing.T) {
	reg := obs.NewRegistry()
	opt := NewRunOpts(workloads.SizeTest)
	var mu sync.Mutex
	executed := map[[2]string]int{}
	opt.testOnRun = func(w, p string, attempt int) {
		mu.Lock()
		executed[[2]string{w, p}]++
		mu.Unlock()
	}
	var out strings.Builder
	ids := []string{ExpOverheadID, ExpRestrictedID}
	if err := RunExperiments(obs.WithRegistry(context.Background(), reg), &out, ids, opt); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("harness_attempts_total", "").Value(); got != 84 {
		t.Errorf("harness_attempts_total = %d, want 84", got)
	}
	grid := evalGrid(workloads.SizeTest, nil)
	keys := map[string][2]string{}
	for wp, n := range executed {
		if n != 1 {
			t.Errorf("%s/%s executed %d times", wp[0], wp[1], n)
		}
		key := cellKeyOf(t, grid, wp[0], wp[1])
		if other, dup := keys[key]; dup {
			t.Errorf("%v and %v executed the same cell key", wp, other)
		}
		keys[key] = wp
	}
	for _, want := range []string{"==> experiment overhead", "==> experiment restricted", "F1:", "F2:"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report missing %q", want)
		}
	}
	if fs := opt.Failures(); len(fs) != 0 || strings.Contains(out.String(), "n/a") {
		t.Errorf("clean plan degraded: %v\n%s", fs, out.String())
	}
}

func TestIndexHelpers(t *testing.T) {
	runs := []Run{
		{Workload: "w", Policy: "unsafe", Stats: cpu.Stats{Cycles: 100}},
		{Workload: "w", Policy: "x", Stats: cpu.Stats{Cycles: 150}},
	}
	ix := NewIndex(runs)
	ov, ok := ix.Overhead("w", "x", "unsafe")
	if !ok || ov < 0.49 || ov > 0.51 {
		t.Errorf("overhead = %f, %v", ov, ok)
	}
	if gm := ix.GeoMeanOverhead("x", "unsafe"); gm < 0.49 || gm > 0.51 {
		t.Errorf("geomean = %f", gm)
	}
	if _, ok := ix.Overhead("nope", "x", "unsafe"); ok {
		t.Error("missing workload reported ok")
	}
}
