package harness

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"levioso/internal/engine"
	"levioso/internal/faultinject"
	"levioso/internal/isa"
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

// cell is one (workload, policy) slot of the sweep.
type cell struct {
	run      Run
	err      error
	attempts int
	done     bool
}

// Supervise runs every (workload, policy) pair, in parallel across cells,
// and degrades instead of aborting: a per-run panic is recovered into
// simerr.ErrPanic, each attempt is bounded by Spec.RunTimeout, transient
// failures are retried with capped exponential backoff, and one bad cell
// becomes a Failure entry while every other cell still returns its Run.
// With Spec.Journal set, completed cells are recorded as they finish and an
// interrupted sweep resumes without re-executing them.
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

	var journalErr error
	var journalMu sync.Mutex
	// Cells are dispatched to a fixed pool of workers draining one queue:
	// a worker finishes a whole cell before taking the next, so at most maxParallel simulator
	// working sets are live at once, instead of one goroutine per cell all
	// fighting for the scheduler.
	type cellJob struct {
		idx   int
		wname string
		pol   string
		prog  *isa.Program
		want  ref.Result
	}
	var jobs []cellJob
	for wi, w := range spec.Workloads {
		pending := false
		for pi := range spec.Policies {
			if !cells[wi*np+pi].done {
				pending = true
			}
		}
		if !pending {
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
			idx := wi*np + pi
			if cells[idx].done {
				continue
			}
			jobs = append(jobs, cellJob{idx: idx, wname: w.Name, pol: pol, prog: prog, want: want})
		}
	}
	workers := maxParallel()
	if workers > len(jobs) {
		workers = len(jobs)
	}
	queue := make(chan cellJob, len(jobs))
	for _, j := range jobs {
		queue <- j
	}
	close(queue)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range queue {
				run, attempts, err := superviseCell(ctx, spec, j.prog, j.want, j.wname, j.pol)
				if err != nil {
					cells[j.idx] = cell{err: err, attempts: attempts}
					continue
				}
				cells[j.idx] = cell{run: run, attempts: attempts, done: true}
				if spec.Journal != nil {
					if jerr := spec.Journal.Record(spec.Tag, run); jerr != nil {
						journalMu.Lock()
						if journalErr == nil {
							journalErr = jerr
						}
						journalMu.Unlock()
					}
				}
			}
		}()
	}
	wg.Wait()
	// An interrupted sweep is a sweep-level abort, not a pile of per-cell
	// failures: completed cells are already journaled, so the caller's
	// resume path is the recovery story.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if journalErr != nil {
		return nil, fmt.Errorf("harness: journal: %w", journalErr)
	}

	res := &SweepResult{Resumed: resumed}
	cellsTotal := obs.FromContext(ctx).CounterVec("harness_cells_total",
		"sweep cells by final disposition", "outcome")
	cellsTotal.With("resumed").Add(uint64(resumed))
	for i, c := range cells {
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

// superviseCell drives one cell through the attempt loop: run, classify,
// and retry transient failures with capped exponential backoff. Every
// attempt records into ctx's obs registry: a harness.cell span (the
// harness_stage_seconds histogram, outcome "ok" or the failure kind),
// harness_attempts_total, and — for
// attempts beyond the first — harness_retries_total, so a sweep's retry and
// deadline pressure is visible without reading the failure table.
func superviseCell(ctx context.Context, spec Spec, prog *isa.Program, want ref.Result, wname, pol string) (Run, int, error) {
	reg := obs.FromContext(ctx)
	backoff := spec.RetryBackoff
	if backoff <= 0 {
		backoff = 10 * time.Millisecond
	}
	var lastErr error
	attempt := 1
	for ; ; attempt++ {
		if spec.testOnRun != nil {
			spec.testOnRun(wname, pol, attempt)
		}
		reg.Counter("harness_attempts_total", "executed sweep cell attempts").Inc()
		if attempt > 1 {
			reg.Counter("harness_retries_total", "cell attempts beyond the first (transient-failure retries)").Inc()
		}
		sp := obs.StartSpan(ctx, "harness.cell")
		run, err := runCell(ctx, spec, prog, want, wname, pol, attempt)
		if err == nil {
			sp.End(obs.OutcomeOK)
			return run, attempt, nil
		}
		kind := simerr.KindOf(err)
		sp.End(kind.String())
		if kind == simerr.KindDeadline {
			reg.Counter("harness_deadlines_total", "cell attempts that hit the per-run wall-clock deadline").Inc()
		}
		lastErr = simerr.WithRun(err, wname, pol, attempt)
		if !simerr.Transient(lastErr) || attempt > spec.Retries {
			break
		}
		d := backoff << (attempt - 1)
		if lim := backoff << 6; d > lim {
			d = lim
		}
		select {
		case <-time.After(d):
		case <-ctx.Done():
			return Run{}, attempt, lastErr
		}
	}
	return Run{}, attempt, lastErr
}

// runCell executes one attempt of one cell through the shared pipeline: an
// engine.Run over the pre-built program under the cell's policy, with any
// injected faults attached to the configuration and the per-run deadline and
// reference cross-check handled by the engine. The engine recovers panics
// anywhere inside the simulation into simerr.ErrPanic; the extra recover
// here also covers a panicking fault-plan callback, so one bad cell cannot
// take down the whole sweep.
func runCell(ctx context.Context, spec Spec, prog *isa.Program, want ref.Result, wname, pol string, attempt int) (run Run, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &simerr.RunError{
				Kind:   simerr.KindPanic,
				Detail: fmt.Sprint(r),
				Stack:  string(debug.Stack()),
			}
		}
	}()
	cfg := spec.Config
	if spec.Faults != nil {
		if plan := spec.Faults(wname, pol); plan != nil {
			faultinject.New(*plan, attempt).Attach(&cfg)
			obs.FromContext(ctx).Counter("harness_faults_injected_total",
				"cell attempts executed with an attached fault-injection plan").Inc()
		}
	}
	req := engine.Request{
		Name:    wname,
		Program: prog,
		Config:  &cfg,
		Verify:  spec.Verify,
		Overrides: engine.Overrides{
			Policy:   pol,
			Deadline: spec.RunTimeout,
		},
	}
	if spec.Verify {
		req.Want = &want
	}
	res, err := engine.Run(ctx, req)
	if err != nil {
		return Run{}, err
	}
	return Run{Workload: wname, Policy: pol, Stats: res.Stats, ExitCode: res.ExitCode}, nil
}

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
