package secure

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"levioso/internal/cpu"
	"levioso/internal/isa"
	"levioso/internal/workloads"
)

// sweepPinsFile pins every observable result of the core on the suite: one
// line per kernel × SweepSpecs() spec × coverage on/off at SizeTest.
const sweepPinsFile = "testdata/sweep_stats.golden"

// pinSubsetKernels is how many suite kernels (in canonical order) the pinned
// test runs under -short or the race detector, where the full matrix is too
// slow.
const pinSubsetKernels = 3

// pinKernels returns the suite kernels the pinned tests run.
func pinKernels() []workloads.Workload {
	ws := workloads.All()
	if testing.Short() || raceEnabled {
		ws = ws[:pinSubsetKernels]
	}
	return ws
}

// runPinned runs prog under pol with the default core and, when cov is set,
// a coverage sink, and renders its golden line: the full Stats, the exit
// code, the console output and a SHA-256 of the coverage bitmap (all zero
// without a sink).
func runPinned(t *testing.T, kernel, spec string, prog *isa.Program, pol cpu.Policy, cov bool) string {
	t.Helper()
	cfg := cpu.DefaultConfig()
	var sink cpu.CoverageSink
	if cov {
		cfg.Coverage = &sink
	}
	c, err := cpu.New(prog, cfg, pol)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run()
	if err != nil {
		t.Fatalf("%s under %s: %v", kernel, spec, err)
	}
	return pinLine(kernel, spec, cov, res, &sink)
}

// pinLine renders a run's golden line.
func pinLine(kernel, spec string, cov bool, res cpu.Result, sink *cpu.CoverageSink) string {
	var bits []byte
	for _, w := range sink.Bits {
		bits = binary.LittleEndian.AppendUint64(bits, w)
	}
	// rawStats drops Stats' String method so every field prints.
	type rawStats cpu.Stats
	return fmt.Sprintf("%s %s cov=%t exit=%d out=%q covsha=%x stats=%+v",
		kernel, spec, cov, res.ExitCode, res.Output, sha256.Sum256(bits), rawStats(res.Stats))
}

// loadPins reads the golden file into a map keyed by each line's first
// three fields (kernel, spec, coverage flag).
func loadPins(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(sweepPinsFile)
	if err != nil {
		t.Fatalf("%v (regenerate with UPDATE_SWEEP_PINS=1 go test -run TestSweepStatsPinned ./internal/secure)", err)
	}
	pins := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		pins[pinKey(line)] = line
	}
	return pins
}

func pinKey(line string) string {
	f := strings.SplitN(line, " ", 4)
	return strings.Join(f[:min(3, len(f))], " ")
}

// TestSweepStatsPinned is the core's bit-exactness gate: every Stats field,
// the exit code, the console output and the coverage bitmap of every suite
// kernel under every registered policy configuration, with and without a
// coverage sink, must match the recorded lines. A speed change to the core,
// the policies or the memory model must leave every line unchanged; a
// deliberate timing-model change regenerates the file with
// UPDATE_SWEEP_PINS=1 (full matrix only; never under -short or -race).
//
// The runs without a sink also enforce the Decide contract (see
// contractChecker). The checker only observes, and the core drives any
// policy other than cpu.NopPolicy through the same calls with or without
// it, so those runs still reproduce their pinned lines.
func TestSweepStatsPinned(t *testing.T) {
	update := os.Getenv("UPDATE_SWEEP_PINS") != ""
	if update && (testing.Short() || raceEnabled) {
		t.Fatal("UPDATE_SWEEP_PINS needs the full matrix: run without -short and -race")
	}
	var want map[string]string
	if !update {
		want = loadPins(t)
	}
	var lines []string
	for _, w := range pinKernels() {
		prog := w.MustBuild(workloads.SizeTest)
		for _, spec := range SweepSpecs() {
			for _, cov := range []bool{false, true} {
				pol := MustNew(spec)
				var chk *contractChecker
				if _, nop := pol.(cpu.NopPolicy); !nop && !cov {
					chk, pol = checkContract(pol)
				}
				got := runPinned(t, w.Name, spec, prog, pol, cov)
				lines = append(lines, got)
				if chk != nil && chk.violation != "" {
					t.Errorf("%s under %s: %s", w.Name, spec, chk.violation)
				}
				if update {
					continue
				}
				if exp, ok := want[pinKey(got)]; !ok {
					t.Errorf("no pinned line for %s", pinKey(got))
				} else if got != exp {
					t.Errorf("result changed:\n got  %s\n want %s", got, exp)
				}
			}
		}
	}
	if update {
		if err := os.WriteFile(sweepPinsFile, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d lines to %s", len(lines), sweepPinsFile)
	}
}

// contractChecker enforces the contract the core's verdict cache relies on
// (see cpu.Policy): once Decide returns Wait for an instruction, it keeps
// returning Wait until the core next reports a resolved branch slot or a
// squash. It wraps a policy, and at the first hook call of every cycle
// re-asks the inner policy about each instruction it has seen wait since the
// last such event — the cycles in which a core without the cache would have
// asked again. It records the first violation.
type contractChecker struct {
	inner     cpu.Policy
	c         *cpu.Core
	waiting   []*cpu.DynInst // told Wait since the last resolve or squash
	checked   uint64         // cycle of the last recheck
	violation string
}

// contractTainter is contractChecker for policies that request secret-taint
// tracking, so the core still enables it.
type contractTainter struct{ *contractChecker }

func (contractTainter) UsesSecretTaint() {}

// checkContract wraps pol in a contractChecker.
func checkContract(pol cpu.Policy) (*contractChecker, cpu.Policy) {
	chk := &contractChecker{inner: pol}
	if _, ok := pol.(cpu.SecretTainter); ok {
		return chk, contractTainter{chk}
	}
	return chk, chk
}

func (p *contractChecker) Name() string { return p.inner.Name() }

func (p *contractChecker) Attach(c *cpu.Core) {
	p.c = c
	p.inner.Attach(c)
}

func (p *contractChecker) Reset() {
	p.inner.Reset()
	p.waiting = nil
}

func (p *contractChecker) OnRename(d *cpu.DynInst) {
	p.recheck()
	p.inner.OnRename(d)
}

func (p *contractChecker) Decide(d *cpu.DynInst) cpu.Decision {
	p.recheck()
	v := p.inner.Decide(d)
	if v == cpu.Wait && !slices.Contains(p.waiting, d) {
		p.waiting = append(p.waiting, d)
	}
	return v
}

func (p *contractChecker) OnForward(load, store *cpu.DynInst) {
	p.recheck()
	p.inner.OnForward(load, store)
}

func (p *contractChecker) OnSlotResolved(slot int) {
	p.waiting = p.waiting[:0]
	p.inner.OnSlotResolved(slot)
}

func (p *contractChecker) OnSquash(d *cpu.DynInst) {
	p.waiting = p.waiting[:0]
	p.inner.OnSquash(d)
}

// recheck re-asks the inner policy about every recorded waiter, once per
// cycle. A Wait verdict has no side effects in any policy, so asking again
// is harmless while the contract holds.
func (p *contractChecker) recheck() {
	if p.violation != "" || p.c.CycleCount() == p.checked {
		return
	}
	p.checked = p.c.CycleCount()
	for _, w := range p.waiting {
		if v := p.inner.Decide(w); v != cpu.Wait {
			p.violation = fmt.Sprintf("seq %d %v: Wait turned into %d with no resolve or squash in between",
				w.Seq, w.Inst, v)
			return
		}
	}
}
