// Package harness runs the paper's experiments: it sweeps the workload suite
// across secure-speculation policies and core configurations and renders the
// tables and figures indexed in DESIGN.md (T1–T3, F1–F5). cmd/levbench and
// the repository benchmarks are thin wrappers over this package.
package harness

import (
	"time"

	"levioso/internal/cpu"
	"levioso/internal/faultinject"
	"levioso/internal/secure"
	"levioso/internal/stats"
	"levioso/internal/workloads"
)

// Run is one (workload, policy) simulation result.
type Run struct {
	Workload string
	Policy   string
	Stats    cpu.Stats
	ExitCode uint64
}

// Spec describes a sweep.
type Spec struct {
	Workloads []workloads.Workload
	Policies  []string
	Size      workloads.Size
	Config    cpu.Config
	// Verify cross-checks every run against the reference interpreter
	// (exit code and console output) and fails on divergence.
	Verify bool

	// Tag namespaces this sweep's cells in the run journal, so parameter
	// sweeps that reuse (workload, policy) keys under different core
	// configurations (e.g. "rob=128" vs "rob=256") do not collide.
	Tag string
	// Retries is how many times the supervisor re-runs a cell after a
	// transient failure (deadline, panic); permanent failures — watchdog,
	// cycle limit, divergence — never retry. 0 (or less) means one attempt
	// only.
	Retries int
	// RetryBackoff is the base of the capped exponential backoff between
	// attempts (default 10ms, doubling per attempt, capped at 64x base,
	// with ±50% jitter).
	RetryBackoff time.Duration
	// RunTimeout bounds each attempt's wall-clock time; 0 = unbounded.
	// Expiry surfaces as simerr.ErrDeadline, classified transient.
	RunTimeout time.Duration
	// Journal, when non-nil, records each completed cell and lets an
	// interrupted sweep resume without re-executing them.
	Journal *Journal
	// Faults, when non-nil, returns the fault plan to inject into a cell's
	// core (nil = run clean). Used by robustness tests to prove the
	// watchdog, limits and classification fire.
	Faults func(workload, policy string) *faultinject.Plan

	// testOnRun observes every executed attempt (test instrumentation; the
	// journal-resume tests count re-executions through it).
	testOnRun func(workload, policy string, attempt int)
}

// DefaultSpec sweeps the full suite over the headline policies at reference
// scale on the default core.
func DefaultSpec() Spec {
	return Spec{
		Workloads: workloads.All(),
		Policies:  secure.EvalNames(),
		Size:      workloads.SizeRef,
		Config:    defaultRunConfig(),
		Verify:    true,
	}
}

func defaultRunConfig() cpu.Config {
	cfg := cpu.DefaultConfig()
	cfg.MaxCycles = 500_000_000
	return cfg
}

// Sweep is the strict form of Supervise: it runs every (workload, policy)
// pair in parallel and aborts on the first failed cell. Results are ordered
// workload-major, matching Spec order.
//
// One program build is shared by all concurrent runs of a workload. This is
// safe because a built *isa.Program is immutable during simulation: cpu.New
// copies prog.Data into the core's own physical memory, the branch table
// only reads the Hints map, and nothing writes Text or Symbols after the
// compiler returns (TestSweepSharedProgramImmutable pins this down, and the
// race detector watches every concurrent sweep in the test suite).
func Sweep(spec Spec) ([]Run, error) {
	res, err := Supervise(nil, spec)
	if err != nil {
		return nil, err
	}
	if len(res.Failures) > 0 {
		return nil, res.Failures[0].Err
	}
	return res.Runs, nil
}

// Index organizes runs for table rendering: byWP[workload][policy].
type Index struct {
	Workloads []string
	Policies  []string
	byWP      map[string]map[string]cpu.Stats
}

// NewIndex builds an index over runs.
func NewIndex(runs []Run) *Index {
	ix := &Index{byWP: make(map[string]map[string]cpu.Stats)}
	seenW := map[string]bool{}
	seenP := map[string]bool{}
	for _, r := range runs {
		if !seenW[r.Workload] {
			seenW[r.Workload] = true
			ix.Workloads = append(ix.Workloads, r.Workload)
		}
		if !seenP[r.Policy] {
			seenP[r.Policy] = true
			ix.Policies = append(ix.Policies, r.Policy)
		}
		m := ix.byWP[r.Workload]
		if m == nil {
			m = make(map[string]cpu.Stats)
			ix.byWP[r.Workload] = m
		}
		m[r.Policy] = r.Stats
	}
	return ix
}

// Stats returns the run statistics for (workload, policy).
func (ix *Index) Stats(w, p string) (cpu.Stats, bool) {
	s, ok := ix.byWP[w][p]
	return s, ok
}

// Overhead returns policy p's execution-time overhead on workload w relative
// to the baseline policy (normalized cycles - 1).
func (ix *Index) Overhead(w, p, baseline string) (float64, bool) {
	base, ok1 := ix.byWP[w][baseline]
	s, ok2 := ix.byWP[w][p]
	if !ok1 || !ok2 || base.Cycles == 0 {
		return 0, false
	}
	return float64(s.Cycles)/float64(base.Cycles) - 1, true
}

// GeoMeanOverhead aggregates a policy's overhead across all workloads using
// the geometric mean of normalized runtimes (the paper's metric).
func (ix *Index) GeoMeanOverhead(p, baseline string) float64 {
	var ratios []float64
	for _, w := range ix.Workloads {
		ov, ok := ix.Overhead(w, p, baseline)
		if !ok {
			continue
		}
		ratios = append(ratios, 1+ov)
	}
	if len(ratios) == 0 {
		return 0
	}
	return stats.GeoMean(ratios) - 1
}
