package levioso

// End-to-end integration smoke tests over the whole stack: LevC source ->
// compiler -> annotation pass -> out-of-order core under multiple policies ->
// experiment harness rendering. The per-package suites test each layer
// exhaustively; this file checks that the assembled product works as a whole,
// the way the README quickstart drives it.

import (
	"context"
	"strings"
	"testing"

	"levioso/internal/cpu"
	"levioso/internal/harness"
	"levioso/internal/lang"
	"levioso/internal/ref"
	"levioso/internal/secure"
	"levioso/internal/workloads"
)

func TestEndToEndPipeline(t *testing.T) {
	prog, err := lang.Compile("e2e.lc", `
var h[32];
func mix(x) { return (x * 2654435761) >> 9; }
func main() {
	var i;
	for (i = 0; i < 500; i = i + 1) {
		var k = mix(i) & 31;
		if (h[k] < 10) { h[k] = h[k] + 1; }
	}
	var acc = 0;
	for (i = 0; i < 32; i = i + 1) { acc = acc + h[i]; }
	print(acc);
	return acc & 255;
}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Hints) == 0 {
		t.Fatal("compiled program has no Levioso annotations")
	}
	want, err := ref.Run(prog, ref.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	var unsafeCycles, leviosoCycles uint64
	for _, pol := range []string{"unsafe", "delay", "levioso", "levioso-ghost"} {
		c, err := cpu.New(prog, cpu.DefaultConfig(), secure.MustNew(pol))
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Run()
		if err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		if res.ExitCode != want.ExitCode || res.Output != want.Output {
			t.Errorf("%s: architectural mismatch: %d/%q vs %d/%q",
				pol, res.ExitCode, res.Output, want.ExitCode, want.Output)
		}
		switch pol {
		case "unsafe":
			unsafeCycles = res.Stats.Cycles
		case "levioso":
			leviosoCycles = res.Stats.Cycles
		}
	}
	if leviosoCycles < unsafeCycles {
		t.Errorf("levioso (%d cycles) faster than unsafe (%d)", leviosoCycles, unsafeCycles)
	}
}

func TestExperimentReportsRender(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	// The cheap experiments end-to-end; the sweeps are covered by benches.
	for _, id := range []string{"config", "compiler"} {
		var out strings.Builder
		if err := harness.RunExperiments(context.Background(), &out, []string{id}, harness.NewRunOpts(workloads.SizeTest)); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if !strings.Contains(out.String(), ":") || out.Len() < 100 {
			t.Errorf("%s: implausibly small report:\n%s", id, out.String())
		}
	}
}
