package fuzz

import (
	"context"
	"fmt"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"

	"levioso/internal/attack"
	"levioso/internal/cpu"
	"levioso/internal/engine"
	"levioso/internal/faultinject"
	"levioso/internal/isa"
	"levioso/internal/ref"
	"levioso/internal/secure"
	"levioso/internal/simerr"
)

// Oracle families. Every Finding is attributed to the oracle that observed
// it, which is what the summary table and the shrinker's match target key on.
const (
	// OracleDifferential: architectural mismatch against internal/ref —
	// exit code, console output, retired-instruction count, or a core-side
	// fault/divergence on a program the reference model completes.
	OracleDifferential = "differential"
	// OracleDeterminism: the same program under the same policy twice did
	// not produce bit-identical results (exit, output, cpu.Stats).
	OracleDeterminism = "determinism"
	// OracleInvariants: Core.CheckInvariants failed after completion or
	// after a fault-injected squash storm.
	OracleInvariants = "invariants"
	// OracleSecurity: a policy that promises coverage let a gadget's probe
	// recover the planted secret, or the attack expectation matrix moved.
	OracleSecurity = "security"
	// OracleLimits: watchdog or cycle/instruction-limit exhaustion on a
	// program the reference model completes (funneled through simerr).
	OracleLimits = "limits"
	// OraclePanic: a panic captured anywhere in a run.
	OraclePanic = "panic"
	// OracleBuild: an unexpected pre-simulation failure.
	OracleBuild = "build"
	// OracleGenerator: the generated program faulted on the reference model
	// — a generator bug worth failing loudly on.
	OracleGenerator = "generator"
)

// Finding is one oracle failure. The (Oracle, Policy, Kind) triple
// identifies the failure class — the shrinker preserves it while minimizing.
type Finding struct {
	Oracle string `json:"oracle"`
	Policy string `json:"policy,omitempty"`
	Kind   string `json:"kind,omitempty"`
	Detail string `json:"detail,omitempty"`
}

func (f Finding) String() string {
	s := f.Oracle
	if f.Policy != "" {
		s += "/" + f.Policy
	}
	if f.Kind != "" {
		s += " (" + f.Kind + ")"
	}
	if f.Detail != "" {
		s += ": " + f.Detail
	}
	return s
}

// sameClass reports whether two findings are the same failure class (the
// shrinker's acceptance criterion: detail strings may change as the program
// shrinks, the class must not).
func (f Finding) sameClass(g Finding) bool {
	return f.Oracle == g.Oracle && f.Policy == g.Policy && f.Kind == g.Kind
}

// Verdict is the oracle stack's judgement of one case.
type Verdict struct {
	Findings []Finding
	// Skipped marks a case the oracles could not judge at all (reference
	// deadline or instruction limit).
	Skipped    bool
	SkipReason string
	// SkippedRuns counts individual runs dropped on wall-clock deadlines
	// while the rest of the stack still ran.
	SkippedRuns int
	// Execs counts simulator/reference executions performed.
	Execs int
	// GadgetLeakUnsafe records that the unsafe baseline recovered the
	// planted secret — the expected leak that proves the generated gadget
	// actually works (a statistic, not a finding).
	GadgetLeakUnsafe bool
}

func (v *Verdict) add(f Finding) { v.Findings = append(v.Findings, f) }

// RunOracles runs the full oracle stack over one case:
//
//	(a) architectural differential vs internal/ref (exit code, output,
//	    retired-instruction count) under every policy,
//	(b) determinism — the identical run twice must be bit-identical,
//	(c) Core.CheckInvariants after completion and after a fault-injected
//	    squash storm (plus an architectural re-check: injected faults are
//	    microarchitectural and must never change architecture),
//	(d) the security oracle for gadget cases — a covering policy must keep
//	    the probe blind to the planted secret,
//	(e) panic/limit capture funneled through simerr.
//
// The stack is deterministic: the same case with the same options yields the
// same verdict, which is what makes corpus replay and journal resume exact.
func RunOracles(ctx context.Context, c *Case, opt Options) Verdict {
	opt = opt.withDefaults()
	var v Verdict

	maxCycles := opt.MaxCycles
	if c.TimingDep && maxCycles < 20_000_000 {
		maxCycles = 20_000_000
	}

	want, err := refRun(ctx, c, opt)
	v.Execs++
	if err != nil {
		switch k := simerr.KindOf(err); k {
		case simerr.KindDeadline:
			v.Skipped, v.SkipReason = true, "reference deadline"
		case simerr.KindInstLimit:
			v.Skipped, v.SkipReason = true, "reference instruction limit"
		default:
			// The generator guarantees architecturally clean programs; a
			// reference fault means the generator (or a shrink candidate)
			// broke that contract.
			v.add(Finding{Oracle: OracleGenerator, Kind: k.String(), Detail: err.Error()})
		}
		return v
	}

	for _, pol := range opt.Policies {
		runPolicyOracles(ctx, &v, c, pol, want, maxCycles, opt)
	}
	return v
}

// runPolicyOracles runs oracles (a), (b), (d) and both (c) stages for one
// policy.
func runPolicyOracles(ctx context.Context, v *Verdict, c *Case, pol string, want ref.Result, maxCycles uint64, opt Options) {
	// (a) + (e): one engine run with the reference cross-check.
	res, err := engineRun(ctx, c, pol, maxCycles, opt, !c.TimingDep, &want)
	v.Execs++
	if err != nil {
		f, skip := classifyRunErr(pol, err)
		if skip {
			v.SkippedRuns++
			return
		}
		v.add(f)
		return
	}
	if !c.TimingDep && res.Stats.Committed != want.Insts {
		v.add(Finding{
			Oracle: OracleDifferential, Policy: pol, Kind: "retired-count",
			Detail: fmt.Sprintf("core committed %d instructions, reference executed %d", res.Stats.Committed, want.Insts),
		})
	}

	// (d): the probe's guess must not equal the planted secret under any
	// policy whose contract covers the V1 (control-dependent) shape.
	if c.Profile == ProfileGadget {
		checkGadgetLeak(ctx, v, c, pol, res.Output, maxCycles, opt)
	}

	// (b): bit-identical determinism of the identical request.
	res2, err2 := engineRun(ctx, c, pol, maxCycles, opt, false, nil)
	v.Execs++
	switch {
	case err2 != nil:
		if simerr.KindOf(err2) == simerr.KindDeadline {
			v.SkippedRuns++
		} else {
			v.add(Finding{
				Oracle: OracleDeterminism, Policy: pol, Kind: simerr.KindOf(err2).String(),
				Detail: "second identical run failed: " + err2.Error(),
			})
		}
	case res2.ExitCode != res.ExitCode || res2.Output != res.Output || res2.Stats != res.Stats:
		v.add(Finding{
			Oracle: OracleDeterminism, Policy: pol, Kind: "stats",
			Detail: fmt.Sprintf("same seed, different outcome: exit %d/%d, output %q/%q, cycles %d/%d",
				res.ExitCode, res2.ExitCode, res.Output, res2.Output, res.Stats.Cycles, res2.Stats.Cycles),
		})
	}

	// (c): invariants after clean completion, then under a squash storm.
	coreInvariants(ctx, v, c, pol, want, maxCycles, opt, false)
	if !opt.NoStorm {
		coreInvariants(ctx, v, c, pol, want, maxCycles, opt, true)
	}
}

// checkGadgetLeak implements oracle (d) for one policy's run output. A
// probe guess equal to the secret under a covering policy is only a leak if
// the guess depends on the secret: the case is re-run once with a different
// byte planted, and the leak stands only if the guess follows it. (A probe
// can print a constant that happens to equal the planted byte.)
func checkGadgetLeak(ctx context.Context, v *Verdict, c *Case, pol string, output string, maxCycles uint64, opt Options) {
	guess, err := strconv.Atoi(strings.TrimSpace(output))
	if err != nil {
		v.add(Finding{Oracle: OracleSecurity, Policy: pol, Kind: "unparsable",
			Detail: fmt.Sprintf("gadget output %q is not a probe guess", output)})
		return
	}
	exp, err := attack.ExpectedLeaks(pol)
	if err != nil {
		return // policy outside the documented matrix: no contract to hold
	}
	// The V1 column assumes the gadget's secret is declared secret-typed;
	// cases without a secrets section (older corpus entries) are judged by
	// the undeclared-secret column instead, so secret-typed policies are
	// only held to the contract the program actually invokes.
	expLeak := exp.V1
	if len(c.Prog.Secrets) == 0 {
		expLeak = exp.Pub
	}
	if guess != int(c.Secret) {
		return
	}
	if expLeak {
		// The unprotected baseline leaking is the gadget working as built.
		v.GadgetLeakUnsafe = true
		return
	}
	if alt := replanted(c); alt != nil {
		// Coverage off: the confirmation run must not move the campaign's
		// coverage signature.
		opt.Coverage = nil
		res, err := engineRun(ctx, alt, pol, maxCycles, opt, false, nil)
		v.Execs++
		if err == nil && strings.TrimSpace(res.Output) != strconv.Itoa(int(alt.Secret)) {
			return // the guess ignores the secret
		}
	}
	v.add(Finding{Oracle: OracleSecurity, Policy: pol, Kind: "v1-leak",
		Detail: fmt.Sprintf("probe recovered planted secret %d under %s (coverage promised)", c.Secret, pol)})
}

// replanted returns a copy of the gadget case with a different nonzero byte
// planted at its secret symbol, or nil when the program has no such byte.
func replanted(c *Case) *Case {
	addr, ok := c.Prog.Symbols["secret"]
	if !ok || addr < isa.DataBase || addr-isa.DataBase >= uint64(len(c.Prog.Data)) {
		return nil
	}
	prog := *c.Prog
	prog.Data = slices.Clone(c.Prog.Data)
	alt := *c
	alt.Prog, alt.Secret = &prog, byte((int(c.Secret)+127)%255+1) // never c.Secret, never 0
	prog.Data[addr-isa.DataBase] = alt.Secret
	return &alt
}

// coreInvariants is oracle (c): a direct core run (so the post-run core is
// inspectable), CheckInvariants, and — because injected faults and storms
// are microarchitectural only — an architectural re-check against the
// reference result.
func coreInvariants(ctx context.Context, v *Verdict, c *Case, pol string, want ref.Result, maxCycles uint64, opt Options, storm bool) {
	stage := "completion"
	if storm {
		stage = "storm"
	}
	defer func() {
		if r := recover(); r != nil {
			v.add(Finding{Oracle: OraclePanic, Policy: pol, Kind: stage,
				Detail: fmt.Sprintf("%v\n%s", r, debug.Stack())})
		}
	}()

	p, err := secure.New(pol)
	if err != nil {
		v.add(Finding{Oracle: OracleBuild, Policy: pol, Kind: stage, Detail: err.Error()})
		return
	}
	cfg := cpu.DefaultConfig()
	cfg.MaxCycles = maxCycles
	cfg.Coverage = opt.Coverage
	if plan := combinedPlan(c, opt, storm); plan != nil {
		faultinject.New(*plan, 1).Attach(&cfg)
	}
	core, err := cpu.New(c.Prog, cfg, p)
	if err != nil {
		v.add(Finding{Oracle: OracleBuild, Policy: pol, Kind: stage, Detail: err.Error()})
		return
	}
	rctx, cancel := runCtx(ctx, opt)
	defer cancel()
	res, err := core.RunContext(rctx)
	v.Execs++
	if err != nil {
		f, skip := classifyRunErr(pol, err)
		if skip {
			v.SkippedRuns++
			return
		}
		f.Kind = stage + ":" + f.Kind
		v.add(f)
		return
	}
	if ierr := core.CheckInvariants(); ierr != nil {
		v.add(Finding{Oracle: OracleInvariants, Policy: pol, Kind: stage, Detail: ierr.Error()})
	}
	if !c.TimingDep && (res.ExitCode != want.ExitCode || res.Output != want.Output) {
		v.add(Finding{Oracle: OracleDifferential, Policy: pol, Kind: stage,
			Detail: fmt.Sprintf("microarchitectural faults changed architecture: exit %d output %q, want %d %q",
				res.ExitCode, res.Output, want.ExitCode, want.Output)})
	}
}

// combinedPlan merges the session's injected faults with the storm fault.
// The seed mixes the case seed so storms differ per case but reproduce
// exactly per (case, options).
func combinedPlan(c *Case, opt Options, storm bool) *faultinject.Plan {
	if opt.Faults == nil && !storm {
		return nil
	}
	plan := faultinject.Plan{Seed: int64(c.Seed ^ 0x53746f726d)}
	if opt.Faults != nil {
		plan.Seed ^= opt.Faults.Seed
		plan.Faults = append(plan.Faults, opt.Faults.Faults...)
	}
	if storm {
		plan.Faults = append(plan.Faults, faultinject.Fault{Kind: faultinject.MispredictStorm, Prob: 0.5})
	}
	return &plan
}

// classifyRunErr folds a typed run failure into its oracle family.
// Deadlines are skips, not findings (wall-clock, not simulator state).
func classifyRunErr(pol string, err error) (Finding, bool) {
	k := simerr.KindOf(err)
	switch {
	case k == simerr.KindDeadline:
		return Finding{}, true
	case k == simerr.KindDivergence || k == simerr.KindMemFault:
		return Finding{Oracle: OracleDifferential, Policy: pol, Kind: k.String(), Detail: err.Error()}, false
	case simerr.IsLimit(err):
		return Finding{Oracle: OracleLimits, Policy: pol, Kind: k.String(), Detail: err.Error()}, false
	case k == simerr.KindPanic:
		return Finding{Oracle: OraclePanic, Policy: pol, Kind: k.String(), Detail: err.Error()}, false
	default:
		return Finding{Oracle: OracleBuild, Policy: pol, Kind: k.String(), Detail: err.Error()}, false
	}
}

func runCtx(ctx context.Context, opt Options) (context.Context, context.CancelFunc) {
	if opt.Deadline > 0 {
		return context.WithTimeout(ctx, opt.Deadline)
	}
	return context.WithCancel(ctx)
}

func refRun(ctx context.Context, c *Case, opt Options) (ref.Result, error) {
	rctx, cancel := runCtx(ctx, opt)
	defer cancel()
	return engine.Reference(rctx, c.Prog, ref.Limits{MaxInsts: opt.RefMaxInsts})
}

func engineRun(ctx context.Context, c *Case, pol string, maxCycles uint64, opt Options, verify bool, want *ref.Result) (*engine.Result, error) {
	cfg := cpu.DefaultConfig()
	cfg.MaxCycles = maxCycles
	cfg.Coverage = opt.Coverage
	if opt.Faults != nil {
		// A fresh injector per run: the injector is stateful (PRNG, cycle
		// clock), and sharing one would break run-to-run determinism.
		faultinject.New(*opt.Faults, 1).Attach(&cfg)
	}
	req := engine.Request{
		Name: c.Name(), Program: c.Prog, Config: &cfg,
		Overrides: engine.Overrides{Policy: pol, Deadline: opt.Deadline},
	}
	if verify {
		req.Verify = true
		req.Want = want
	}
	return engine.Run(ctx, req)
}

// SecurityMatrix replays the four internal/attack gadgets under each policy
// and checks every outcome against the documented expectation matrix
// (attack.ExpectedLeaks). It catches drift in both directions: a covering
// policy that starts leaking, and an attack that stops working (unsafe MUST
// leak — otherwise the security oracle is checking a broken probe).
// Policies outside the documented matrix are ignored.
func SecurityMatrix(policies []string) []Finding {
	var known []string
	for _, p := range policies {
		if _, err := attack.ExpectedLeaks(p); err == nil {
			known = append(known, p)
		}
	}
	if len(known) == 0 {
		return nil
	}
	outs, err := attack.Run(known, nil)
	if err != nil {
		return []Finding{{Oracle: OracleSecurity, Kind: "matrix", Detail: err.Error()}}
	}
	var fs []Finding
	for _, o := range outs {
		exp, _ := attack.ExpectedLeaks(o.Policy)
		if got := o.Leaks(); got != exp {
			fs = append(fs, Finding{
				Oracle: OracleSecurity, Policy: o.Policy, Kind: "matrix",
				Detail: fmt.Sprintf("attack leak matrix {V1,CTData,CT}: got %+v, want %+v", got, exp),
			})
		}
	}
	return fs
}
