package levioso

import (
	"bytes"
	"context"
	"os"
	"strings"
	"testing"

	"levioso/internal/harness"
	"levioso/internal/workloads"
)

// levbenchGolden is `levbench -size test` as recorded: all ten experiments,
// every table and figure at test scale.
const levbenchGolden = "testdata/levbench_test_output.txt"

// TestLevbenchTestGolden diffs a fresh run of every experiment at test scale
// against levbenchGolden. The sweep pins in internal/secure cover every
// kernel and policy on the default core only; this covers the other cores
// the figures run (F3's ROB sizes, F4's forced mispredictions, F6's BDT
// sizes) and every report as printed. It takes about 20 s on 2 vCPUs, so
// like the pins it is skipped under -short and -race. A deliberate
// timing-model change regenerates it with the pins' variable:
//
//	UPDATE_SWEEP_PINS=1 go test -count=1 -run TestLevbenchTestGolden .
func TestLevbenchTestGolden(t *testing.T) {
	update := os.Getenv("UPDATE_SWEEP_PINS") != ""
	if testing.Short() || raceEnabled {
		if update {
			t.Fatal("UPDATE_SWEEP_PINS needs the full run: run without -short and -race")
		}
		t.Skip("all experiments at test scale: skipped under -short and -race")
	}
	var out bytes.Buffer
	opt := harness.NewRunOpts(workloads.SizeTest)
	if err := harness.RunAll(context.Background(), &out, opt); err != nil {
		t.Fatal(err)
	}
	if fs := opt.Failures(); len(fs) > 0 {
		t.Fatalf("%d cell(s) failed:\n%s", len(fs), harness.RenderFailures(fs))
	}
	if update {
		if err := os.WriteFile(levbenchGolden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(levbenchGolden)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(out.Bytes(), want) {
		return
	}
	got, exp := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(got) || i < len(exp); i++ {
		var g, e string
		if i < len(got) {
			g = got[i]
		}
		if i < len(exp) {
			e = exp[i]
		}
		if g != e {
			t.Fatalf("%s line %d differs:\n got %q\nwant %q\n(regenerate with UPDATE_SWEEP_PINS=1 go test -count=1 -run TestLevbenchTestGolden .)",
				levbenchGolden, i+1, g, e)
		}
	}
}
