// Package engine owns the Levioso run pipeline as a typed API. Every entry
// point in the repository — the command-line tools under cmd/, the experiment
// harness (internal/harness), and the levserve daemon (internal/serve) — is a
// thin adapter over the same four composable steps:
//
//	Load     — unmarshal a LEV64 binary image
//	Compile  — LevC source (or assembly, via Assemble) → annotated program
//	Simulate — run a program on the out-of-order core under a named policy
//	Verify   — cross-check a run against the functional reference model
//
// Run composes the steps for the common case: a Request names exactly one
// program input (pre-built Program, Binary image, LevC Source, or AsmText),
// a policy, config overrides, and verify/trace/deadline options; the Result
// carries the exit code, console output, statistics, and (when the input was
// compiled) the annotation-pass statistics. Failures are typed
// *simerr.RunError values, so supervisors and servers classify them without
// string matching, and context cancellation is threaded end to end — through
// the core's cooperative RunContext check and through the reference
// interpreter's step loop alike.
//
// Keeping the pipeline behind one seam is what lets one dispatch
// coordinator's worker pool and retries run both levserve's cells and the
// sweep supervisor's, with levserve's caching and the supervisor's fault
// injection and journaling layered on top, instead of each being
// re-implemented per main.
package engine

import (
	"context"
	"io"
	"time"

	"levioso/internal/core"
	"levioso/internal/cpu"
	"levioso/internal/isa"
	"levioso/internal/obs"
	"levioso/internal/ref"
	"levioso/internal/secure"
	"levioso/internal/simerr"
)

// MaxROBOverride bounds the ROBSize override: larger windows than this are
// configuration mistakes (the physical register file would dwarf memory),
// and the bound keeps flag parsing and JSON decoding rejecting them
// identically.
const MaxROBOverride = 1 << 14

// Overrides is the common run-option surface every entry point shares: the
// policy and the config overrides a caller may apply on top of a core
// configuration. cli flag parsing and levserve JSON decoding both funnel
// through Normalize, so bounds checks and defaults live in exactly one
// place and a request rejected on the command line is rejected identically
// over HTTP.
type Overrides struct {
	// Policy is the secure-speculation policy spec (see Policies and
	// secure.Resolve): a name, optionally with parameters —
	// "tunable:level=ctrl". Empty means the registry baseline; Normalize
	// canonicalizes.
	Policy string
	// Params are out-of-band policy parameters merged over any inline in
	// Policy (explicit map wins). Normalize folds them into the canonical
	// Policy spec and clears the map.
	Params map[string]string
	// ROBSize, when positive, overrides the ROB size (the physical register
	// file is widened to match if needed). Bounded by MaxROBOverride.
	ROBSize int
	// MaxCycles, when positive, overrides the cycle limit.
	MaxCycles uint64
	// Deadline bounds the run's wall-clock time (0 = none). Expiry
	// surfaces as simerr.ErrDeadline, classified transient.
	Deadline time.Duration
}

// Normalize applies defaults and validates bounds, returning a typed
// KindBuild error on anything out of range: negative or oversized ROB
// overrides, negative deadlines, unknown policy specs. The policy spec and
// any out-of-band Params are resolved against the registry (the single
// unknown-policy check in the system — secure.Resolve formats the error) and
// replaced by the canonical spec string, so caches, logs, and stats keys
// downstream all see one spelling per configuration. Run normalizes its
// request itself, so direct callers may skip this; cli and serve call it
// eagerly to reject bad requests before any work happens.
func (o *Overrides) Normalize() error {
	if o.Policy == "" {
		o.Policy = secure.BaselineName()
	}
	spec, err := secure.Resolve(o.Policy, o.Params)
	if err != nil {
		return &simerr.RunError{Kind: simerr.KindBuild, Detail: "policy", Err: err}
	}
	o.Policy = spec.String()
	o.Params = nil
	if o.ROBSize < 0 || o.ROBSize > MaxROBOverride {
		return simerr.New(simerr.KindBuild, "engine: ROB override %d out of range [0, %d]", o.ROBSize, MaxROBOverride)
	}
	if o.Deadline < 0 {
		return simerr.New(simerr.KindBuild, "engine: negative deadline %v", o.Deadline)
	}
	return nil
}

// Request describes one pipeline invocation. Exactly one program input —
// Program, Binary, Source, or AsmText — must be set. The embedded Overrides
// carry the policy and config-override knobs shared by every entry point.
type Request struct {
	// Name labels the program in diagnostics and cache keys (typically the
	// input file or workload name). Defaults to "prog".
	Name string

	// Program is a pre-built program (the harness path: built once, shared
	// by many concurrent runs; a built *isa.Program is immutable during
	// simulation).
	Program *isa.Program
	// Binary is a LEV64 binary image to Load.
	Binary []byte
	// Source is LevC source to Compile.
	Source string
	// AsmText is LEV64 assembly to Assemble.
	AsmText string

	// NoAnnotate skips the Levioso annotation pass for Source/AsmText
	// inputs (Binary and Program inputs carry whatever annotations they
	// were built with).
	NoAnnotate bool

	// Overrides is the shared option surface: policy, ROB/cycle-limit
	// overrides, wall-clock deadline. See Overrides.Normalize.
	Overrides

	// Config, when non-nil, replaces the default core configuration.
	// The Overrides apply on top of it either way.
	Config *cpu.Config
	// Trace, when non-nil, receives the per-commit pipeline trace (slow).
	Trace io.Writer

	// UseRef runs the program on the functional reference model instead of
	// the out-of-order core (no policy, no Stats).
	UseRef bool
	// Verify cross-checks the core run against the reference model and
	// fails with simerr.KindDivergence on mismatch.
	Verify bool
	// Want, when non-nil and Verify is set, is the precomputed reference
	// result to check against (the harness computes it once per workload
	// and shares it across policy cells). Nil means Run computes it.
	Want *ref.Result
}

// name returns the diagnostic label for the request.
func (r *Request) name() string {
	if r.Name != "" {
		return r.Name
	}
	return "prog"
}

// BuildConfig resolves the request's effective core configuration: the
// explicit Config (or the engine default) with the common overrides applied.
func (r *Request) BuildConfig() cpu.Config {
	cfg := cpu.DefaultConfig()
	if r.Config != nil {
		cfg = *r.Config
	}
	if r.MaxCycles > 0 {
		cfg.MaxCycles = r.MaxCycles
	}
	if r.Trace != nil {
		cfg.Trace = r.Trace
	}
	if r.ROBSize > 0 {
		cfg.ROBSize = r.ROBSize
		if cfg.NumPhysRegs < 32+r.ROBSize {
			cfg.NumPhysRegs = 32 + r.ROBSize + 64
		}
	}
	return cfg
}

// Result summarizes a completed pipeline run.
type Result struct {
	ExitCode uint64
	Output   string
	// Stats is the core's run statistics (zero when Ref).
	Stats cpu.Stats
	// Ref marks a run executed on the functional reference model.
	Ref bool
	// RefInsts is the dynamic instruction count of a reference run.
	RefInsts uint64
	// Annotation carries the Levioso pass statistics when the request's
	// input was compiled or assembled with annotation.
	Annotation *core.AnnotateStats
	// Cached marks a result served from a cache above the engine (levserve
	// sets it; Run never does).
	Cached bool
}

// ExitStatus funnels the program's exit code into a shell exit status.
func (r *Result) ExitStatus() int { return int(r.ExitCode) & 0x7f }

// Run executes the whole pipeline for one request: normalize the option
// surface, resolve the program input (Load/Compile/Assemble), then either a
// reference run (UseRef) or a core simulation under the named policy, then
// the optional reference cross-check. All failures are typed
// *simerr.RunError values.
//
// Every stage records a duration/outcome observation into the obs registry
// carried by ctx (obs.Default when none): the engine_stage_seconds histogram
// family with stage ∈ {load, compile, assemble, annotate, simulate,
// reference, verify} and outcome "ok" or the failure kind, plus the
// engine_runs_total counter. Instrumentation is per stage, never per
// instruction, so its cost is amortized over entire simulations.
func Run(ctx context.Context, req Request) (res *Result, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	defer func() {
		obs.FromContext(ctx).CounterVec("engine_runs_total",
			"completed engine pipeline runs by outcome", "outcome").
			With(outcomeOf(err)).Inc()
	}()
	if err := req.Normalize(); err != nil {
		return nil, err
	}
	prog, annot, err := Resolve(ctx, &req)
	if err != nil {
		return nil, err
	}
	if req.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, req.Deadline)
		defer cancel()
	}
	if req.UseRef {
		sp := obs.StartSpan(ctx, "engine.reference")
		rres, err := Reference(ctx, prog, ref.Limits{})
		sp.End(outcomeOf(err))
		if err != nil {
			return nil, err
		}
		return &Result{
			ExitCode: rres.ExitCode, Output: rres.Output,
			Ref: true, RefInsts: rres.Insts, Annotation: annot,
		}, nil
	}
	sp := obs.StartSpan(ctx, "engine.simulate")
	sres, err := Simulate(ctx, prog, req.BuildConfig(), req.Policy)
	sp.End(outcomeOf(err))
	if err != nil {
		return nil, err
	}
	if req.Verify {
		want := req.Want
		if want == nil {
			// Reference classifies its own failures (deadline, instruction
			// limit, architectural fault) — pass them through rather than
			// re-wrapping, so a deadline stays KindDeadline for the caller.
			rsp := obs.StartSpan(ctx, "engine.reference")
			w, err := Reference(ctx, prog, ref.Limits{})
			rsp.End(outcomeOf(err))
			if err != nil {
				return nil, err
			}
			want = &w
		}
		vsp := obs.StartSpan(ctx, "engine.verify")
		err := VerifyAgainst(sres.ExitCode, sres.Output, *want)
		vsp.End(outcomeOf(err))
		if err != nil {
			return nil, err
		}
	}
	return &Result{
		ExitCode: sres.ExitCode, Output: sres.Output,
		Stats: sres.Stats, Annotation: annot,
	}, nil
}

// outcomeOf maps a stage result onto its span outcome label: "ok" or the
// typed failure kind.
func outcomeOf(err error) string {
	if err == nil {
		return obs.OutcomeOK
	}
	return simerr.KindOf(err).String()
}

// Policies lists every secure-speculation policy family name, baseline first.
func Policies() []string { return secure.Names() }

// EvalPolicies lists the policies in the headline evaluation, in
// presentation order.
func EvalPolicies() []string { return secure.EvalNames() }

// SweepPolicies lists one canonical spec per distinct policy configuration:
// every family, parameterized families at every parameter value.
func SweepPolicies() []string { return secure.SweepSpecs() }

// PolicyUsage is the one-line flag/help text for the policy option,
// generated from the registry.
func PolicyUsage() string { return secure.FlagUsage() }

// BaselinePolicy is the registry's designated baseline (the unprotected
// core), used as the flag default and the overhead denominator.
func BaselinePolicy() string { return secure.BaselineName() }
