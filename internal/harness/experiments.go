package harness

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"levioso/internal/attack"
	"levioso/internal/core"
	"levioso/internal/cpu"
	"levioso/internal/engine"
	"levioso/internal/mem"
	"levioso/internal/secure"
	"levioso/internal/simerr"
	"levioso/internal/stats"
	"levioso/internal/workloads"
)

// RunOpts carries the run settings shared by every experiment — scale,
// retry policy, per-run deadline, journal — and collects the failed cells so
// callers can render a degraded report plus a failure table instead of
// losing all completed work to one bad run.
type RunOpts struct {
	Size       workloads.Size
	Retries    int           // transient-failure retries per cell
	RunTimeout time.Duration // wall-clock bound per attempt; 0 = none
	Journal    *Journal      // optional resume journal

	failures  []Failure
	testOnRun func(workload, policy string, attempt int) // see Spec.testOnRun
}

// NewRunOpts returns options for the given scale with no retries, no
// deadline and no journal — the strict profile the tests and benchmarks use.
func NewRunOpts(size workloads.Size) *RunOpts { return &RunOpts{Size: size} }

// Failures returns every failed cell collected so far, in report order.
func (o *RunOpts) Failures() []Failure { return append([]Failure(nil), o.failures...) }

// addFailure records one failed cell (experiments that fail outside the
// plan — e.g. a build-only experiment — report through this, so every
// experiment degrades the same way).
func (o *RunOpts) addFailure(f Failure) { o.failures = append(o.failures, f) }

// Experiment IDs (see DESIGN.md's experiment index).
const (
	ExpConfigID     = "config"     // T1
	ExpCharactID    = "charact"    // T1b: workload characterization
	ExpOverheadID   = "overhead"   // F1 (headline)
	ExpRestrictedID = "restricted" // F2
	ExpROBID        = "rob"        // F3
	ExpMispredictID = "mispredict" // F4
	ExpSecurityID   = "security"   // T2
	ExpAblationID   = "ablation"   // F5
	ExpBDTID        = "bdt"        // F6: Branch Dependency Table size
	ExpCompilerID   = "compiler"   // T3
)

// ExperimentIDs lists all experiments in presentation order.
func ExperimentIDs() []string {
	return []string{
		ExpConfigID, ExpCharactID, ExpOverheadID, ExpRestrictedID, ExpROBID,
		ExpMispredictID, ExpSecurityID, ExpAblationID, ExpBDTID, ExpCompilerID,
	}
}

// experiment is one table or figure: the grids of cells it reads (none for
// the tables that simulate nothing) and its renderer over their completed
// runs, one slice per grid in grid order.
type experiment struct {
	grids  []Spec
	render func(runs [][]Run) (string, error)
}

// experiment declares experiment id at o's scale, with the parameter points
// levbench reports.
func (o *RunOpts) experiment(ctx context.Context, id string) (experiment, error) {
	switch id {
	case ExpConfigID:
		return experiment{render: func([][]Run) (string, error) { return ExpConfig(cpu.DefaultConfig()), nil }}, nil
	case ExpCharactID:
		return charact(o.Size), nil
	case ExpOverheadID:
		return overhead(o.Size, "F1: execution-time overhead vs unsafe (lower is better)", secure.EvalNames()), nil
	case ExpRestrictedID:
		return restricted(o.Size), nil
	case ExpROBID:
		return robSweep(o.Size, []int{64, 96, 128, 192, 256, 384}), nil
	case ExpMispredictID:
		return mispredict(o.Size, []float64{0, 0.02, 0.05, 0.10, 0.20}), nil
	case ExpSecurityID:
		return experiment{render: func([][]Run) (string, error) { return ExpSecurity() }}, nil
	case ExpAblationID:
		return overhead(o.Size, "F5: Levioso ablation+extension (levioso-ctrl drops data tracking — UNSOUND, cost attribution only; levioso-ghost runs dependent loads invisibly — extension beyond the paper)",
			secure.AblationNames()), nil
	case ExpBDTID:
		return bdtSweep(o.Size, []int{4, 8, 16, 32, 64}), nil
	case ExpCompilerID:
		return experiment{render: func([][]Run) (string, error) { return ExpCompiler(ctx, o) }}, nil
	}
	return experiment{}, fmt.Errorf("harness: unknown experiment %q (have %v)", id, ExperimentIDs())
}

// RunExperiments runs the experiments named by ids (empty means all) as one
// evaluation plan and writes their reports to w in the order given: the
// union of their cells is simulated once (see supervise), and each table
// renders from the shared results. A "==> experiment" header precedes each
// report when more than one id is given, and a failure table follows any
// report that lost cells; the failed cells also accumulate on opt.
// Cancelling ctx (SIGINT in levbench) stops the plan between cells and
// surfaces as the context's error.
func RunExperiments(ctx context.Context, w io.Writer, ids []string, opt *RunOpts) error {
	if len(ids) == 0 {
		ids = ExperimentIDs()
	}
	exps := make([]experiment, len(ids))
	for i, id := range ids {
		var err error
		if exps[i], err = opt.experiment(ctx, id); err != nil {
			return err
		}
	}
	return opt.report(ctx, w, ids, exps)
}

// report supervises the union of exps' grids as one plan, then renders each
// experiment to w in order: after its id's header when ids names several,
// and before the failure table of the cells it lost, which also accumulate
// on o.
func (o *RunOpts) report(ctx context.Context, w io.Writer, ids []string, exps []experiment) error {
	var grids []Spec
	for _, e := range exps {
		grids = append(grids, e.grids...)
	}
	set := Spec{Retries: o.Retries, RunTimeout: o.RunTimeout, Journal: o.Journal, testOnRun: o.testOnRun}
	res, err := supervise(ctx, &set, grids)
	if err != nil {
		return err
	}
	for i, e := range exps {
		before := len(o.failures)
		runs := make([][]Run, len(e.grids))
		for gi := range runs {
			runs[gi] = res[0].Runs
			o.failures = append(o.failures, res[0].Failures...)
			res = res[1:]
		}
		text, err := e.render(runs)
		if err != nil {
			return err
		}
		if len(ids) > 1 {
			fmt.Fprintf(w, "==> experiment %s\n", ids[i])
		}
		fmt.Fprintln(w, text)
		if len(o.failures) > before {
			fmt.Fprintln(w, RenderFailures(o.failures[before:]))
		}
	}
	return nil
}

// report1 plans and renders a single experiment, as RunExperiments does.
func (o *RunOpts) report1(ctx context.Context, e experiment) (string, error) {
	var b strings.Builder
	err := o.report(ctx, &b, nil, []experiment{e})
	return strings.TrimSuffix(b.String(), "\n"), err
}

// evalGrid is the full suite on the default core under policies.
func evalGrid(size workloads.Size, policies []string) Spec {
	spec := DefaultSpec()
	spec.Size, spec.Policies = size, policies
	return spec
}

// ExpConfig renders T1: the simulated core configuration table.
func ExpConfig(cfg cpu.Config) string {
	t := stats.NewTable("T1: simulated core configuration", "parameter", "value")
	t.Add("pipeline width (F/R/I/C)", fmt.Sprintf("%d/%d/%d/%d",
		cfg.FetchWidth, cfg.RenameWidth, cfg.IssueWidth, cfg.CommitWidth))
	t.Add("ROB / IQ / LQ / SQ", fmt.Sprintf("%d / %d / %d / %d",
		cfg.ROBSize, cfg.IQSize, cfg.LQSize, cfg.SQSize))
	t.Add("physical registers", fmt.Sprint(cfg.NumPhysRegs))
	t.Add("ALUs / MULs / mem ports", fmt.Sprintf("%d / %d / %d",
		cfg.NumALU, cfg.NumMul, cfg.NumMemPorts))
	t.Add("mul / div latency", fmt.Sprintf("%d / %d..%d", cfg.MulLatency,
		cfg.DivLatencyBase, cfg.DivLatencyBase+cfg.DivLatencyRange))
	t.Add("branch predictor", fmt.Sprintf("gshare 2^%d, %d-bit history, %d-entry BTB, %d-deep RAS",
		cfg.Predictor.GShareBits, cfg.Predictor.HistoryBits,
		cfg.Predictor.BTBEntries, cfg.Predictor.RASDepth))
	t.Add("redirect penalty", fmt.Sprintf("%d cycles", cfg.RedirectPenalty))
	t.Add("L1I", cacheLine(cfg.Hier.L1I))
	t.Add("L1D", cacheLine(cfg.Hier.L1D))
	t.Add("L2", cacheLine(cfg.Hier.L2))
	t.Add("inclusive invisible-load support", "expose-at-commit (InvisiSpec-style)")
	t.Add("memory latency", fmt.Sprintf("%d cycles", cfg.Hier.MemLatency))
	t.Add("branch dependency table", fmt.Sprintf("%d entries", core.NumSlots))
	return t.String()
}

func cacheLine(c mem.CacheConfig) string {
	return fmt.Sprintf("%d KiB, %d-way, %dB lines, %d-cycle",
		c.SizeBytes()/1024, c.Ways, c.LineBytes, c.Latency)
}

// ExpCharacterization renders T1b: per-workload behaviour on the unprotected
// core — the numbers that explain the per-workload overhead texture in F1.
func ExpCharacterization(ctx context.Context, opt *RunOpts) (string, error) {
	return opt.report1(ctx, charact(opt.Size))
}

func charact(size workloads.Size) experiment {
	return experiment{grids: []Spec{evalGrid(size, []string{secure.BaselineName()})}, render: func(runs [][]Run) (string, error) {
		t := stats.NewTable("T1b: workload characterization (unsafe baseline)",
			"workload", "class", "insts", "IPC", "br-miss%", "L1D-MPKI", "L2-MPKI", "spec-transmit%")
		for _, r := range runs[0] {
			w, _ := workloads.ByName(r.Workload)
			st := r.Stats
			mpki := func(miss uint64) string {
				return fmt.Sprintf("%.1f", 1000*float64(miss)/float64(st.Committed))
			}
			t.Add(r.Workload, w.Class,
				fmt.Sprint(st.Committed),
				fmt.Sprintf("%.2f", st.IPC()),
				fmt.Sprintf("%.1f", 100*st.MispredictRate()),
				mpki(st.L1DMisses), mpki(st.L2Misses),
				stats.Pct(st.SpecFrac()))
		}
		return t.String(), nil
	}}
}

// overhead renders F1 (the headline figure) and F5 (the Levioso ablation):
// per-workload and geomean execution-time overhead of each policy relative
// to the first, the unprotected core.
func overhead(size workloads.Size, title string, policies []string) experiment {
	return experiment{grids: []Spec{evalGrid(size, policies)}, render: func(runs [][]Run) (string, error) {
		return renderOverhead(title, NewIndex(runs[0]), policies), nil
	}}
}

func renderOverhead(title string, ix *Index, policies []string) string {
	headers := append([]string{"workload"}, policies[1:]...)
	t := stats.NewTable(title, headers...)
	for _, w := range ix.Workloads {
		row := []string{w}
		for _, p := range policies[1:] {
			// Failed cells degrade to "n/a" instead of discarding the table.
			if ov, ok := ix.Overhead(w, p, policies[0]); ok {
				row = append(row, stats.Pct(ov))
			} else {
				row = append(row, "n/a")
			}
		}
		t.Add(row...)
	}
	row := []string{"geomean"}
	var gms []float64
	for _, p := range policies[1:] {
		gm := ix.GeoMeanOverhead(p, policies[0])
		gms = append(gms, gm)
		row = append(row, stats.Pct(gm))
	}
	t.Add(row...)
	var b strings.Builder
	b.WriteString(t.String())
	// Figure-style bars for the geomean.
	b.WriteString("\ngeomean overhead:\n")
	maxOv := 0.0
	for _, gm := range gms {
		if gm > maxOv {
			maxOv = gm
		}
	}
	for i, p := range policies[1:] {
		fmt.Fprintf(&b, "  %-10s %7s %s\n", p, stats.Pct(gms[i]), stats.Bar(gms[i], maxOv, 40))
	}
	return b.String()
}

// restricted renders F2: the fraction of dynamic transmitters each policy
// actually delayed, against the fraction a conservative scheme must delay
// (transmitters issued under at least one unresolved branch).
func restricted(size workloads.Size) experiment {
	grid := evalGrid(size, []string{secure.BaselineName(), "delay", "levioso"})
	return experiment{grids: []Spec{grid}, render: func(runs [][]Run) (string, error) {
		ix := NewIndex(runs[0])
		t := stats.NewTable(
			"F2: fraction of dynamic transmitters restricted",
			"workload", "speculative@issue(unsafe)", "delay-restricted", "levioso-restricted", "bdt-stalls")
		var spec_, del, lev []float64
		for _, w := range ix.Workloads {
			u, ok1 := ix.Stats(w, secure.BaselineName())
			d, ok2 := ix.Stats(w, "delay")
			l, ok3 := ix.Stats(w, "levioso")
			if !ok1 || !ok2 || !ok3 {
				t.Add(w, "n/a", "n/a", "n/a", "n/a")
				continue
			}
			spec_ = append(spec_, u.SpecFrac())
			del = append(del, d.RestrictedFrac())
			lev = append(lev, l.RestrictedFrac())
			t.Add(w, stats.Pct(u.SpecFrac()), stats.Pct(d.RestrictedFrac()),
				stats.Pct(l.RestrictedFrac()), fmt.Sprint(l.BDTAllocStalls))
		}
		t.Add("mean", stats.Pct(stats.Mean(spec_)), stats.Pct(stats.Mean(del)), stats.Pct(stats.Mean(lev)), "")
		return t.String(), nil
	}}
}

// SensitivityWorkloads is the six-kernel subset used by the sensitivity
// sweeps (F3, F4): two Levioso-friendly (pchase, hashjoin), two adversarial
// (bsearch, treesearch), one branchy-recursive (qsort) and one predictable
// (matmul). Running sweeps on a representative subset keeps the full
// reference-scale regeneration tractable, as sensitivity studies in the
// paper's venue usually do.
func SensitivityWorkloads() []workloads.Workload {
	var out []workloads.Workload
	for _, name := range []string{"pchase", "qsort", "bsearch", "hashjoin", "matmul", "treesearch"} {
		w, ok := workloads.ByName(name)
		if !ok {
			panic("harness: missing sensitivity workload " + name)
		}
		out = append(out, w)
	}
	return out
}

// sensitivity declares a sweep over the six-kernel subset under policies:
// one grid per point, each on the default core as vary(i) changes it, and
// one table row per grid — vary's label, then row's cells.
func sensitivity(size workloads.Size, title string, header []string, points int,
	vary func(i int, cfg *cpu.Config) string, policies []string, row func(runs []Run) []string) experiment {
	labels := make([]string, points)
	e := experiment{render: func(runs [][]Run) (string, error) {
		t := stats.NewTable(title, header...)
		for i, r := range runs {
			t.Add(append([]string{labels[i]}, row(r)...)...)
		}
		return t.String(), nil
	}}
	for i := range labels {
		cfg := defaultRunConfig()
		labels[i] = vary(i, &cfg)
		e.grids = append(e.grids, Spec{Workloads: SensitivityWorkloads(), Policies: policies, Size: size, Config: cfg, Verify: true})
	}
	return e
}

// evalSensitivity is sensitivity over the eval policies, each row the
// geomean overhead of every defense.
func evalSensitivity(size workloads.Size, title, param string, points int, vary func(i int, cfg *cpu.Config) string) experiment {
	policies := secure.EvalNames()
	return sensitivity(size, title, append([]string{param}, policies[1:]...), points, vary, policies,
		func(runs []Run) []string {
			ix := NewIndex(runs)
			var row []string
			for _, p := range policies[1:] {
				row = append(row, stats.Pct(ix.GeoMeanOverhead(p, policies[0])))
			}
			return row
		})
}

// ExpROBSweep renders F3: geomean overhead of each policy as the window
// (ROB) scales — bigger windows widen the speculation shadow, growing the
// gap between conservative schemes and Levioso.
func ExpROBSweep(ctx context.Context, opt *RunOpts, robs []int) (string, error) {
	return opt.report1(ctx, robSweep(opt.Size, robs))
}

func robSweep(size workloads.Size, robs []int) experiment {
	return evalSensitivity(size, "F3: geomean overhead vs ROB size (6-workload subset)", "ROB", len(robs),
		func(i int, cfg *cpu.Config) string {
			rob := robs[i]
			cfg.ROBSize = rob
			cfg.IQSize = rob / 3
			cfg.LQSize = rob / 4
			cfg.SQSize = rob / 6
			cfg.NumPhysRegs = 32 + rob + 76
			return fmt.Sprint(rob)
		})
}

// ExpMispredict renders F4: geomean overhead as predictor quality degrades
// (forced extra misprediction rate). Worse prediction means more and longer
// speculation shadows: all defenses get more expensive, Levioso least.
func ExpMispredict(ctx context.Context, opt *RunOpts, rates []float64) (string, error) {
	return opt.report1(ctx, mispredict(opt.Size, rates))
}

func mispredict(size workloads.Size, rates []float64) experiment {
	return evalSensitivity(size, "F4: geomean overhead vs forced extra mispredict rate (6-workload subset)", "rate", len(rates),
		func(i int, cfg *cpu.Config) string {
			cfg.Predictor.ForceMispredictRate = rates[i]
			return fmt.Sprintf("%.0f%%", 100*rates[i])
		})
}

// ExpSecurity renders T2: the attack matrix over four attacks — Spectre-V1
// (control-dependent gadget, declared secret), its data-dependence variant
// (transmitter after reconvergence consuming a region-produced value),
// Spectre-CT (non-speculatively loaded secret), and the undeclared-secret V1
// variant that probes the secret-typed contract's public half. The policy set
// is the registry sweep (every family, parameterized families at every
// level), and each row's verdict compares the observed leaks against the
// coverage contract's expectation matrix.
func ExpSecurity() (string, error) {
	outcomes, err := attack.Run(secure.SweepSpecs(), nil)
	if err != nil {
		return "", err
	}
	t := stats.NewTable("T2: secrets recovered (of trials) per attack",
		"policy", "v1 (ctrl gadget)", "ct-data (post-reconv)", "ct (non-spec secret)", "v1-public (undeclared)", "verdict")
	for _, o := range outcomes {
		exp, err := attack.ExpectedLeaks(o.Policy)
		if err != nil {
			return "", err
		}
		verdict := "as contracted"
		if got := o.Leaks(); got != exp {
			verdict = fmt.Sprintf("CONTRACT VIOLATED: got %+v, want %+v", got, exp)
		}
		t.Add(o.Policy,
			fmt.Sprintf("%d/%d", o.V1Correct, o.V1Trials),
			fmt.Sprintf("%d/%d", o.CTDCorrect, o.CTDTrials),
			fmt.Sprintf("%d/%d", o.CTCorrect, o.CTTrials),
			fmt.Sprintf("%d/%d", o.PubCorrect, o.PubTrials),
			verdict)
	}
	return t.String(), nil
}

// ExpBDTSweep renders F6: Levioso overhead and rename stalls as the Branch
// Dependency Table shrinks — the hardware-cost knob. The table is sized so
// capacity stalls are rare at 64 entries; this sweep shows where the knee is.
func ExpBDTSweep(ctx context.Context, opt *RunOpts, sizes []int) (string, error) {
	return opt.report1(ctx, bdtSweep(opt.Size, sizes))
}

func bdtSweep(size workloads.Size, sizes []int) experiment {
	policies := []string{secure.BaselineName(), "levioso"}
	return sensitivity(size, "F6: levioso geomean overhead vs Branch Dependency Table size (6-workload subset)",
		[]string{"BDT entries", "levioso overhead", "alloc stalls"}, len(sizes),
		func(i int, cfg *cpu.Config) string {
			cfg.BDTEntries = sizes[i]
			return fmt.Sprint(sizes[i])
		}, policies,
		func(runs []Run) []string {
			var stalls uint64
			for _, r := range runs {
				if r.Policy == "levioso" {
					stalls += r.Stats.BDTAllocStalls
				}
			}
			return []string{stats.Pct(NewIndex(runs).GeoMeanOverhead("levioso", policies[0])), fmt.Sprint(stalls)}
		})
}

// ExpCompiler renders T3: per-workload Levioso compiler pass statistics. It
// takes *RunOpts like every other experiment, so it shares the scale knob
// and the degrade-instead-of-abort failure plumbing: a workload whose build
// or annotation fails renders as "n/a" and is collected on opt instead of
// discarding the whole table.
func ExpCompiler(ctx context.Context, opt *RunOpts) (string, error) {
	t := stats.NewTable("T3: compiler annotation statistics",
		"workload", "branches", "annotated", "conservative", "avg region (blocks)", "avg writeset", "table bytes")
	for _, w := range workloads.All() {
		prog, err := w.Build(opt.Size)
		if err == nil {
			var st core.AnnotateStats
			if st, err = engine.Annotate(prog); err == nil {
				t.Add(w.Name, fmt.Sprint(st.Branches), fmt.Sprint(st.Annotated),
					fmt.Sprint(st.Conservative),
					fmt.Sprintf("%.1f", st.AvgRegionBlocks()),
					fmt.Sprintf("%.1f", st.AvgWriteRegs()),
					fmt.Sprint(st.TableBytes))
				continue
			}
		}
		opt.addFailure(Failure{
			Workload: w.Name, Policy: "-", Attempts: 1,
			Err: simerr.WithRun(&simerr.RunError{
				Kind: simerr.KindBuild, Detail: "compiler statistics failed", Err: err,
			}, w.Name, "-", 1),
		})
		t.Add(w.Name, "n/a", "n/a", "n/a", "n/a", "n/a", "n/a")
	}
	return t.String(), nil
}
