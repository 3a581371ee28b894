package harness

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"time"

	"levioso/internal/dispatch"
	"levioso/internal/engine"
	"levioso/internal/faultinject"
	"levioso/internal/isa"
	"levioso/internal/obs"
	"levioso/internal/ref"
	"levioso/internal/simerr"
	"levioso/internal/stats"
	"levioso/internal/workloads"
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

// program is one workload built once per plan, with its reference run.
type program struct {
	prog *isa.Program
	want ref.Result // the reference result; zero until a verifying grid runs it
	err  error      // build or reference failure: the workload's cells fail with it
}

// cell is one distinct cell of a plan and, while pending, the dispatch cell
// it runs as.
type cell struct {
	dispatch.Cell
	policy   string            // as first requested; the coordinator canonicalizes Overrides.Policy
	prog     *program          // shared by the workload's cells
	plan     *faultinject.Plan // Spec.Faults' plan for the cell, nil to run clean
	key      string            // the cell's identity and journal key; empty for a faulted cell
	run      Run
	err      error
	attempts int // numbered by the worker; a cell's attempts run one after another
	resumed  bool
}

// plan is the union of several grids' cells: each workload built once per
// size, each distinct cell once.
type plan struct {
	set      *Spec
	progs    map[progKey]*program
	keyed    map[string]*cell
	pending  []*cell // the distinct cells left to run, in plan order
	outcomes *obs.CounterVec
}

type progKey struct {
	name string
	size workloads.Size
}

// Supervise runs every (workload, policy) pair of spec on a
// dispatch.Coordinator with GOMAXPROCS in-process slots, and degrades
// instead of aborting: the engine recovers a per-run panic into
// simerr.ErrPanic, each attempt is bounded by Spec.RunTimeout, the
// coordinator retries transient failures with capped exponential backoff,
// and one bad cell becomes a Failure entry while every other cell still
// returns its Run. With Spec.Journal set, completed cells are recorded as
// they finish and an interrupted sweep resumes without re-executing them.
// It is the one-grid case of the plan runner levbench drives.
//
// The returned error is reserved for sweep-level problems (a cancelled
// context, a journal write failure); per-cell errors are in Failures.
func Supervise(ctx context.Context, spec Spec) (*SweepResult, error) {
	res, err := supervise(ctx, &spec, []Spec{spec})
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// supervise is the plan runner: it runs the union of grids' cells under
// set's run settings (Retries, RetryBackoff, RunTimeout, Journal, Faults)
// and returns one SweepResult per grid. Each workload is built once and, if
// any grid verifies it, run once on the reference model. A cell is keyed by
// the engine.CacheKey the coordinator derives for it, so a cell that several
// grids request is simulated, journaled and resumed once; the distinct cells
// are admitted together, longest reference run first. A cell with a fault
// plan has no key and runs alone.
func supervise(ctx context.Context, set *Spec, grids []Spec) ([]*SweepResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	pl := plan{
		set:      set,
		progs:    make(map[progKey]*program),
		keyed:    make(map[string]*cell),
		outcomes: obs.FromContext(ctx).CounterVec("harness_cells_total", "sweep cells by final disposition", "outcome"),
	}
	slots := make([][]*cell, len(grids))
	for gi := range grids {
		g := &grids[gi]
		for _, w := range g.Workloads {
			p := pl.program(ctx, w, g.Size, g.Verify)
			for _, pol := range g.Policies {
				slots[gi] = append(slots[gi], pl.cell(g, w.Name, p, pol))
			}
		}
	}
	// Longest first, so no slot idles behind a long cell admitted last.
	// Without a reference run the order is the plan's.
	slices.SortStableFunc(pl.pending, func(a, b *cell) int { return cmp.Compare(b.prog.want.Insts, a.prog.want.Insts) })
	if err := pl.run(ctx); err != nil {
		return nil, err
	}

	out := make([]*SweepResult, len(grids))
	for gi := range grids {
		g, res := &grids[gi], &SweepResult{}
		np := len(g.Policies)
		for i, c := range slots[gi] {
			w, pol := g.Workloads[i/np].Name, g.Policies[i%np]
			if c.err != nil {
				res.Failures = append(res.Failures, Failure{Workload: w, Policy: pol, Attempts: c.attempts, Err: c.err})
				continue
			}
			if c.resumed {
				res.Resumed++
			}
			res.Runs = append(res.Runs, Run{Workload: w, Policy: pol, Stats: c.run.Stats, ExitCode: c.run.ExitCode})
		}
		out[gi] = res
	}
	return out, nil
}

// program returns workload w built at size, built on first use, and runs its
// reference when verify asks for one it does not have yet. Every grid of a
// plan verifies (levbench's experiments) or the plan has one grid
// (Supervise), so a reference failure can fail all of the workload's cells.
func (pl *plan) program(ctx context.Context, w workloads.Workload, size workloads.Size, verify bool) *program {
	p := pl.progs[progKey{w.Name, size}]
	if p == nil {
		p = &program{}
		pl.progs[progKey{w.Name, size}] = p
		var err error
		if p.prog, err = w.Build(size); err != nil {
			p.err = &simerr.RunError{Kind: simerr.KindBuild, Detail: "workload build failed", Err: err}
		}
	}
	// A reference that has run counts its HALT, so Insts is never zero.
	if verify && p.err == nil && p.want.Insts == 0 {
		var err error
		if p.want, err = engine.Reference(ctx, p.prog, ref.Limits{}); err != nil {
			p.err = &simerr.RunError{Kind: simerr.KindBuild, Detail: "reference run failed", Err: err}
		}
	}
	return p
}

// cell returns the plan's cell for (workload, policy) on grid g's core: the
// cell already planned under the same key, one restored from the journal, or
// a new pending one.
func (pl *plan) cell(g *Spec, wname string, p *program, pol string) *cell {
	c := &cell{policy: pol, prog: p}
	if p.err != nil {
		c.err, c.attempts = simerr.WithRun(p.err, wname, pol, 1), 1
		pl.outcomes.With("failed").Inc()
		return c
	}
	// The cell carries the canonical policy its key was derived from; a
	// policy the registry rejects leaves the cell unkeyed, and the
	// coordinator fails it.
	ov := engine.Overrides{Policy: pol, Deadline: pl.set.RunTimeout}
	canonical := ov.Normalize() == nil
	c.Cell = dispatch.Cell{
		Name:      wname,
		Program:   p.prog,
		Config:    &g.Config,
		Verify:    g.Verify,
		Overrides: ov,
	}
	if pl.set.Faults != nil {
		c.plan = pl.set.Faults(wname, pol)
	}
	if c.plan != nil {
		// A faulted cell runs on a hooked core, and a hooked core has no
		// result key: it never shares a cell, a flight or a journal entry
		// with a repeat of its pair. Each attempt attaches a fresh injector
		// over these hooks.
		cfg := g.Config
		faultinject.New(*c.plan, 1).Attach(&cfg)
		c.Config = &cfg
	} else if key, ok := engine.CacheKey(p.prog, ov.Policy, g.Config, false, g.Verify); ok && canonical {
		if dup := pl.keyed[key]; dup != nil {
			return dup
		}
		c.key = key
		pl.keyed[key] = c
		if pl.set.Journal != nil {
			if c.run, c.resumed = pl.set.Journal.Lookup(key); c.resumed {
				pl.outcomes.With("resumed").Inc()
				return c
			}
		}
	}
	pl.pending = append(pl.pending, c)
	return c
}

// run admits every pending cell to a coordinator built for this plan and
// settles each one, journaling the completed keyed ones.
func (pl *plan) run(ctx context.Context) error {
	set, pending := pl.set, pl.pending
	if len(pending) == 0 {
		return ctx.Err()
	}
	backoff := set.RetryBackoff
	if backoff <= 0 {
		backoff = 10 * time.Millisecond
	}
	w := &sweepWorker{set: set, cells: make(map[*dispatch.Cell]*cell, len(pending))}
	for _, c := range pending {
		w.cells[&c.Cell] = c
	}
	co, err := dispatch.New(ctx, dispatch.Config{
		Workers:     runtime.GOMAXPROCS(0),
		Spawn:       func(context.Context) (dispatch.Worker, error) { return w, nil },
		MaxAttempts: max(set.Retries, 0) + 1,
		Backoff:     backoff,
		// An in-process slot has no health to lose: its transient failures
		// are the cell's own (a deadline, an injected panic), so no streak
		// may park it for a breaker cooldown.
		BreakerThreshold: math.MaxInt,
		QueueDepth:       -1,
		CacheEntries:     -1,
		Registry:         cmp.Or(set.testRegistry, obs.NewRegistry()),
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
	var journalOnce sync.Once
	var wg sync.WaitGroup
	for i, c := range pending {
		wg.Add(1)
		go func(i int, c *cell) {
			defer wg.Done()
			res, err := adm.Execute(ctx, i, &c.Cell)
			if err != nil {
				c.err = simerr.WithRun(err, c.Name, c.policy, c.attempts)
				pl.outcomes.With("failed").Inc()
				return
			}
			pl.outcomes.With("ok").Inc()
			c.run = Run{Workload: c.Name, Policy: c.policy, Stats: res.Stats, ExitCode: res.ExitCode}
			if set.Journal != nil && c.key != "" {
				if jerr := set.Journal.Record(c.key, c.run); jerr != nil {
					journalOnce.Do(func() { journalErr = jerr })
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
	set   *Spec
	cells map[*dispatch.Cell]*cell // read-only once the sweep starts
}

func (w *sweepWorker) Execute(ctx context.Context, c *dispatch.Cell) (*engine.Result, error) {
	sc := w.cells[c]
	sc.attempts++
	if w.set.testOnRun != nil {
		w.set.testOnRun(sc.Name, sc.policy, sc.attempts)
	}
	reg := obs.FromContext(ctx)
	reg.Counter("harness_attempts_total", "executed sweep cell attempts").Inc()
	if sc.attempts > 1 {
		reg.Counter("harness_retries_total", "cell attempts beyond the first (transient-failure retries)").Inc()
	}
	sp := obs.StartSpan(ctx, "harness.cell")
	cfg := *c.Config
	if sc.plan != nil {
		faultinject.New(*sc.plan, sc.attempts).Attach(&cfg)
		reg.Counter("harness_faults_injected_total",
			"cell attempts executed with an attached fault-injection plan").Inc()
	}
	req := engine.Request{
		Name:      c.Name,
		Program:   c.Program,
		Config:    &cfg,
		Verify:    c.Verify,
		Overrides: c.Overrides,
	}
	if c.Verify {
		req.Want = &sc.prog.want
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
