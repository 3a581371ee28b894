package levioso

// End-to-end coverage for the cmd/ entry points' code path. The mains are
// thin flag-to-Request adapters over internal/engine (enforced by the make
// ci import gate), so this file drives exactly what they drive: the engine's
// Compile step on an example program, simulation under two policies, and a
// golden check of the architectural output — which must be identical across
// policies and match the precomputed expectation byte for byte. Two tests
// build a main itself: cmd/levbench, to check its flag validation and exit
// status, and cmd/levsim, to check how its run journal keys runs.

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"levioso/internal/engine"
)

// e2eSrc mirrors the quickstart example: a histogram with data-dependent
// branches. sum(i*i, i<100) = 328350 is the printed golden value.
const e2eSrc = `
var sq[100];
func main() {
	var i;
	var acc = 0;
	for (i = 0; i < 100; i = i + 1) {
		sq[i] = i * i;
		if (sq[i] > 50) { acc = acc + sq[i]; } else { acc = acc + i * i; }
	}
	print(acc);
	return acc & 255;
}`

const e2eWantOutput = "328350\n"
const e2eWantExit = uint64(328350 & 255)

func TestCmdPipelineGolden(t *testing.T) {
	// Compile once with the engine's Compile step — the levc path.
	prog, annot, err := engine.Compile("e2e.lc", e2eSrc, true)
	if err != nil {
		t.Fatal(err)
	}
	if annot == nil || annot.Branches == 0 {
		t.Fatalf("annotation pass produced no statistics: %+v", annot)
	}
	// The levc output is a binary image; the levsim path loads it back.
	img, err := prog.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	var cycles = map[string]uint64{}
	for _, pol := range []string{"unsafe", "levioso"} {
		res, err := engine.Run(context.Background(), engine.Request{
			Name: "e2e.bin", Binary: img, Verify: true,
			Overrides: engine.Overrides{Policy: pol},
		})
		if err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		if res.Output != e2eWantOutput {
			t.Errorf("%s: output %q, want golden %q", pol, res.Output, e2eWantOutput)
		}
		if res.ExitCode != e2eWantExit {
			t.Errorf("%s: exit %d, want golden %d", pol, res.ExitCode, e2eWantExit)
		}
		cycles[pol] = res.Stats.Cycles
	}
	// The secure policy pays cycles, never changes architecture.
	if cycles["levioso"] < cycles["unsafe"] {
		t.Errorf("levioso ran faster than unsafe (%d < %d cycles) — suspicious",
			cycles["levioso"], cycles["unsafe"])
	}

	// The reference-model path (levsim -ref) must agree with the golden too.
	rres, err := engine.Run(context.Background(), engine.Request{
		Name: "e2e.bin", Binary: img, UseRef: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rres.Output != e2eWantOutput || rres.ExitCode != e2eWantExit {
		t.Errorf("reference run diverges from golden: %+v", rres)
	}
}

// TestLevbenchRejectsNegativeFlags: a negative retry count or per-run timeout
// is a usage error (exit 2) before any experiment runs, not a quiet single
// attempt or an unbounded run.
func TestLevbenchRejectsNegativeFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("builds cmd/levbench")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool to build cmd/levbench with")
	}
	bin := filepath.Join(t.TempDir(), "levbench")
	if out, err := exec.Command(goTool, "build", "-o", bin, "./cmd/levbench").CombinedOutput(); err != nil {
		t.Fatalf("build levbench: %v\n%s", err, out)
	}
	for _, args := range [][]string{
		{"-exp", "config", "-retries", "-1"},
		{"-exp", "config", "-run-timeout", "-1s"},
	} {
		out, err := exec.Command(bin, args...).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("levbench %v: %v, want exit status 2\n%s", args, err, out)
		}
	}
}

// TestLevsimJournalKeysRuns: levsim -journal keys a run by its identity
// (image, policy, core after overrides, run mode). Runs that differ only in
// -rob, or only in -ref, must each simulate, and a repeat of each is a
// journal hit; a traced run has no key and never touches the journal.
func TestLevsimJournalKeysRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("builds cmd/levsim")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool to build cmd/levsim with")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "levsim")
	if out, err := exec.Command(goTool, "build", "-o", bin, "./cmd/levsim").CombinedOutput(); err != nil {
		t.Fatalf("build levsim: %v\n%s", err, out)
	}
	prog, _, err := engine.Compile("e2e.lc", e2eSrc, true)
	if err != nil {
		t.Fatal(err)
	}
	img, err := prog.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	progPath := filepath.Join(dir, "p.bin")
	if err := os.WriteFile(progPath, img, 0o644); err != nil {
		t.Fatal(err)
	}
	journal := filepath.Join(dir, "runs.jsonl")
	hit := func(args ...string) bool {
		args = append(append([]string{"-journal", journal}, args...), progPath)
		out, err := exec.Command(bin, args...).CombinedOutput()
		var exit *exec.ExitError
		if err != nil && (!errors.As(err, &exit) || exit.ExitCode() != int(e2eWantExit)&0x7f) {
			t.Fatalf("levsim %v: %v\n%s", args, err, out)
		}
		return strings.Contains(string(out), "journal hit")
	}
	runs := [][]string{{"-rob", "64"}, {"-rob", "256"}, {"-ref"}, {"-trace"}}
	for _, args := range runs {
		if hit(args...) {
			t.Errorf("levsim %v: first run answered from the journal", args)
		}
	}
	for _, args := range runs {
		if want := args[0] != "-trace"; hit(args...) != want {
			t.Errorf("levsim %v repeated: journal hit %v, want %v", args, !want, want)
		}
	}
}
