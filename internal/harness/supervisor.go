package harness

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"levioso/internal/dispatch"
	"levioso/internal/engine"
	"levioso/internal/faultinject"
	"levioso/internal/obs"
	"levioso/internal/ref"
	"levioso/internal/simerr"
	"levioso/internal/stats"
)

// Failure is one (workload, policy) cell the supervisor could not complete.
type Failure struct {
	Workload string
	Policy   string
	Attempts int
	Err      error // a *simerr.RunError carrying the classification
}

// SweepResult is the partial outcome of a supervised sweep: every cell that
// completed, every cell that failed, and how many were restored from the
// journal instead of re-executed. Runs keeps workload-major Spec order with
// failed cells skipped, so NewIndex works directly on it.
type SweepResult struct {
	Runs     []Run
	Failures []Failure
	Resumed  int
}

// cell is one (workload, policy) slot of the sweep and, while pending, the
// dispatch cell it runs as.
type cell struct {
	dispatch.Cell
	policy   string     // as the Spec spells it; the coordinator canonicalizes Overrides.Policy
	want     ref.Result // the workload's reference result, shared by its cells
	run      Run
	err      error
	attempts int // numbered by the worker; a cell's attempts run one after another
	done     bool
}

// Supervise runs every (workload, policy) pair on a dispatch.Coordinator
// with GOMAXPROCS in-process slots, and degrades instead of aborting: the
// engine recovers a per-run panic into simerr.ErrPanic, each attempt is
// bounded by Spec.RunTimeout, the coordinator retries transient failures
// with capped exponential backoff, and one bad cell becomes a Failure entry
// while every other cell still returns its Run. Cells are admitted at once
// and start in Spec order. With Spec.Journal set, completed cells are
// recorded as they finish and an interrupted sweep resumes without
// re-executing them.
//
// The returned error is reserved for sweep-level problems (a cancelled
// context, a journal write failure); per-cell errors are in Failures.
func Supervise(ctx context.Context, spec Spec) (*SweepResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	np := len(spec.Policies)
	cells := make([]cell, len(spec.Workloads)*np)

	resumed := 0
	if spec.Journal != nil {
		for wi, w := range spec.Workloads {
			for pi, pol := range spec.Policies {
				if run, ok := spec.Journal.Lookup(spec.Tag, w.Name, pol); ok {
					cells[wi*np+pi] = cell{run: run, done: true}
					resumed++
				}
			}
		}
	}

	var pending []*cell
	for wi, w := range spec.Workloads {
		todo := false
		for pi := range spec.Policies {
			if !cells[wi*np+pi].done {
				todo = true
			}
		}
		if !todo {
			continue // fully resumed: skip the build too
		}
		prog, err := w.Build(spec.Size)
		if err != nil {
			failWorkload(cells[wi*np:wi*np+np], spec, w.Name, &simerr.RunError{
				Kind: simerr.KindBuild, Detail: "workload build failed", Err: err,
			})
			continue
		}
		var want ref.Result
		if spec.Verify {
			want, err = engine.Reference(ctx, prog, ref.Limits{})
			if err != nil {
				failWorkload(cells[wi*np:wi*np+np], spec, w.Name, &simerr.RunError{
					Kind: simerr.KindBuild, Detail: "reference run failed", Err: err,
				})
				continue
			}
		}
		for pi, pol := range spec.Policies {
			c := &cells[wi*np+pi]
			if c.done {
				continue
			}
			c.Cell = dispatch.Cell{
				Name:      w.Name,
				Program:   prog,
				Config:    &spec.Config,
				Verify:    spec.Verify,
				Overrides: engine.Overrides{Policy: pol, Deadline: spec.RunTimeout},
			}
			c.policy, c.want = pol, want
			pending = append(pending, c)
		}
	}
	if err := runCells(ctx, spec, pending); err != nil {
		return nil, err
	}

	res := &SweepResult{Resumed: resumed}
	cellsTotal := obs.FromContext(ctx).CounterVec("harness_cells_total",
		"sweep cells by final disposition", "outcome")
	cellsTotal.With("resumed").Add(uint64(resumed))
	for i := range cells {
		c := &cells[i]
		if c.err != nil {
			cellsTotal.With("failed").Inc()
			res.Failures = append(res.Failures, Failure{
				Workload: spec.Workloads[i/np].Name,
				Policy:   spec.Policies[i%np],
				Attempts: c.attempts,
				Err:      c.err,
			})
			continue
		}
		if c.attempts > 0 {
			cellsTotal.With("ok").Inc()
		}
		res.Runs = append(res.Runs, c.run)
	}
	return res, nil
}

// runCells admits every pending cell to a coordinator built for this sweep
// and settles each one, journaling the completed ones.
func runCells(ctx context.Context, spec Spec, pending []*cell) error {
	if len(pending) == 0 {
		return ctx.Err()
	}
	backoff := spec.RetryBackoff
	if backoff <= 0 {
		backoff = 10 * time.Millisecond
	}
	w := &sweepWorker{spec: &spec, cells: make(map[*dispatch.Cell]*cell, len(pending))}
	for _, c := range pending {
		w.cells[&c.Cell] = c
	}
	co, err := dispatch.New(ctx, dispatch.Config{
		Workers:     runtime.GOMAXPROCS(0),
		Spawn:       func(context.Context) (dispatch.Worker, error) { return w, nil },
		MaxAttempts: max(spec.Retries, 0) + 1,
		Backoff:     backoff,
		// An in-process slot has no health to lose: its transient failures
		// are the cell's own (a deadline, an injected panic), so no streak
		// may park it for a breaker cooldown.
		BreakerThreshold: math.MaxInt,
		QueueDepth:       -1,
		CacheEntries:     -1,
		Registry:         obs.NewRegistry(),
	})
	if err != nil {
		return err
	}
	defer co.Close()
	adm, err := co.Admit(len(pending))
	if err != nil {
		return err
	}
	defer adm.Release()

	var journalErr error
	var journalMu sync.Mutex
	var wg sync.WaitGroup
	for i, c := range pending {
		wg.Add(1)
		go func(i int, c *cell) {
			defer wg.Done()
			res, err := adm.Execute(ctx, i, &c.Cell)
			if err != nil {
				c.err = simerr.WithRun(err, c.Name, c.policy, c.attempts)
				return
			}
			c.run = Run{Workload: c.Name, Policy: c.policy, Stats: res.Stats, ExitCode: res.ExitCode}
			c.done = true
			if spec.Journal != nil {
				if jerr := spec.Journal.Record(spec.Tag, c.run); jerr != nil {
					journalMu.Lock()
					if journalErr == nil {
						journalErr = jerr
					}
					journalMu.Unlock()
				}
			}
		}(i, c)
	}
	wg.Wait()
	// An interrupted sweep is a sweep-level abort, not a pile of per-cell
	// failures: completed cells are already journaled, so the caller's
	// resume path is the recovery story.
	if err := ctx.Err(); err != nil {
		return err
	}
	if journalErr != nil {
		return fmt.Errorf("harness: journal: %w", journalErr)
	}
	return nil
}

// failWorkload marks every policy cell of one workload failed with the same
// pre-simulation cause (build or reference-run failure).
func failWorkload(cells []cell, spec Spec, wname string, cause *simerr.RunError) {
	for pi, pol := range spec.Policies {
		if cells[pi].done {
			continue
		}
		cells[pi] = cell{err: simerr.WithRun(cause, wname, pol, 1), attempts: 1}
	}
}

// sweepWorker is the coordinator's in-process worker for one sweep: one
// attempt of one cell through engine.Run, on the cell's core with its fault
// plan attached for that attempt, verified against the workload's shared
// reference result. A panic anywhere in the simulation, injected fault hooks
// included, is recovered by the engine. Every attempt records into ctx's obs
// registry: a harness.cell span (the harness_stage_seconds histogram,
// outcome "ok" or the failure kind), harness_attempts_total, and — for
// attempts beyond the first — harness_retries_total, so a sweep's retry and
// deadline pressure is visible without reading the failure table.
type sweepWorker struct {
	spec  *Spec
	cells map[*dispatch.Cell]*cell // read-only once the sweep starts
}

func (w *sweepWorker) Execute(ctx context.Context, c *dispatch.Cell) (*engine.Result, error) {
	sc := w.cells[c]
	sc.attempts++
	if w.spec.testOnRun != nil {
		w.spec.testOnRun(sc.Name, sc.policy, sc.attempts)
	}
	reg := obs.FromContext(ctx)
	reg.Counter("harness_attempts_total", "executed sweep cell attempts").Inc()
	if sc.attempts > 1 {
		reg.Counter("harness_retries_total", "cell attempts beyond the first (transient-failure retries)").Inc()
	}
	sp := obs.StartSpan(ctx, "harness.cell")
	cfg := *c.Config
	if w.spec.Faults != nil {
		if plan := w.spec.Faults(sc.Name, sc.policy); plan != nil {
			faultinject.New(*plan, sc.attempts).Attach(&cfg)
			reg.Counter("harness_faults_injected_total",
				"cell attempts executed with an attached fault-injection plan").Inc()
		}
	}
	req := engine.Request{
		Name:      c.Name,
		Program:   c.Program,
		Config:    &cfg,
		Verify:    c.Verify,
		Overrides: c.Overrides,
	}
	if c.Verify {
		req.Want = &sc.want
	}
	res, err := engine.Run(ctx, req)
	if err != nil {
		kind := simerr.KindOf(err)
		sp.End(kind.String())
		if kind == simerr.KindDeadline {
			reg.Counter("harness_deadlines_total", "cell attempts that hit the per-run wall-clock deadline").Inc()
		}
		return nil, err
	}
	sp.End(obs.OutcomeOK)
	return res, nil
}

func (*sweepWorker) Kill()        {}
func (*sweepWorker) Close() error { return nil }

// RenderFailures formats a failure table for reports (empty string when
// there is nothing to report).
func RenderFailures(fs []Failure) string {
	if len(fs) == 0 {
		return ""
	}
	t := stats.NewTable("failed cells", "workload", "policy", "kind", "attempts", "error")
	for _, f := range fs {
		msg := f.Err.Error()
		if len(msg) > 90 {
			msg = msg[:87] + "..."
		}
		t.Add(f.Workload, f.Policy, simerr.KindOf(f.Err).String(), fmt.Sprint(f.Attempts), msg)
	}
	return t.String()
}
