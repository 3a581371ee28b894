package fuzz

import (
	"io"
	"runtime"
	"time"

	"levioso/internal/cpu"
	"levioso/internal/engine"
	"levioso/internal/faultinject"
	"levioso/internal/secure"
	"levioso/internal/simerr"
)

// MaxWorkers bounds the Workers option: more parallel oracle stacks than
// this is a configuration mistake (each worker runs whole policy sweeps),
// and the bound keeps flag parsing and JSON decoding rejecting it
// identically.
const MaxWorkers = 64

// MaxCount bounds the Count option for the same reason: a million-case
// request through the HTTP handler is a typo, not a plan.
const MaxCount = 1_000_000

// Options is the single option surface for the fuzzing subsystem — a
// campaign (Campaign) and every oracle-stack invocation share it. It
// mirrors engine.Overrides: cmd/levfuzz flag parsing and the
// levserve /v1/fuzz JSON handler both funnel through Normalize, so
// defaults, bounds checks, and policy-spec canonicalization live in exactly
// one place and a request rejected on the command line is rejected
// identically over HTTP.
type Options struct {
	// -------------------------------------------------------- campaign ----

	// Seed is the campaign base seed; case i derives its own seed from it
	// (CaseSeed), which is what makes campaigns resumable without
	// persisting generator state.
	Seed uint64
	// Profiles cycles per fresh case index (default: all profiles).
	Profiles []Profile
	// Count bounds the number of cases (0 with Duration set: unbounded;
	// 0 without: 64). The count is absolute: resuming a half-done campaign
	// with the same Count finishes the remainder.
	Count int
	// Duration bounds the campaign wall clock (0: run until Count). The
	// epoch in flight when it expires is discarded.
	Duration time.Duration
	// Workers is the number of goroutines judging an epoch's cases
	// (default: GOMAXPROCS, capped at 8; hard-bounded by MaxWorkers; at
	// most one epoch's cases run at once). It is throughput only: the
	// state file is byte-identical for every value.
	Workers int
	// NoShrink persists findings unshrunk.
	NoShrink bool
	// Log, when set, receives a line per finding as it is folded.
	Log io.Writer
	// Blind disables coverage-guided corpus mutation: every case is
	// generated fresh from the profile cycle. The control arm of the
	// coverage-growth comparison.
	Blind bool
	// Progress, when non-nil, is called on the campaign goroutine after
	// every folded case with the campaign's running totals (the levserve
	// /v1/fuzz status endpoint polls these).
	Progress func(Progress)

	// ---------------------------------------------------------- oracle ----

	// Policies to run every case under (default: the full registry sweep —
	// every family, parameterized families at every level). Normalize
	// resolves each spec against the registry and replaces it with the
	// canonical spelling, so findings and campaign digests see one
	// spelling per configuration.
	Policies []string
	// MaxCycles bounds each core run (default 4M; gadget cases get at
	// least 20M — the probe loop is long).
	MaxCycles uint64
	// RefMaxInsts bounds the reference pre-run (default 2M; generated
	// programs retire well under 100k instructions, so hitting this means
	// the case is degenerate and is skipped, not failed).
	RefMaxInsts uint64
	// Deadline bounds each run's wall-clock time (default 30s). Expiry
	// skips the run (deadlines are machine load, not simulator bugs).
	Deadline time.Duration
	// Faults, when non-nil, is attached (via a fresh seeded injector per
	// run, keeping runs deterministic) to every core-path simulation —
	// the mutation-testing knob: an injected commit stall or squash storm
	// must surface as oracle findings.
	Faults *faultinject.Plan
	// NoStorm skips the squash-storm invariants pass (the shrinker narrows
	// to it only when the target finding came from the storm stage).
	NoStorm bool
	// ShrinkBudget caps oracle-stack evaluations during shrinking
	// (default 250).
	ShrinkBudget int
	// Coverage, when non-nil, accumulates the microarchitectural coverage
	// signature of every run the oracle stack performs (the campaign
	// scheduler attaches a fresh sink per case and feeds the union back
	// into corpus selection).
	Coverage *cpu.CoverageSink
}

// Normalize applies defaults and validates bounds, returning a typed
// KindBuild error on anything out of range: negative counts or durations,
// oversized worker pools, unknown profiles or policy specs. Policy specs
// are resolved against the registry (secure.Resolve formats the
// unknown-policy error) and replaced by their canonical spelling. Campaign
// normalizes its options itself; cli and serve call it eagerly to reject
// bad requests before any work happens.
func (o *Options) Normalize() error {
	if o.Count < 0 || o.Count > MaxCount {
		return simerr.New(simerr.KindBuild, "fuzz: count %d out of range [0, %d]", o.Count, MaxCount)
	}
	if o.Workers < 0 || o.Workers > MaxWorkers {
		return simerr.New(simerr.KindBuild, "fuzz: workers %d out of range [0, %d]", o.Workers, MaxWorkers)
	}
	if o.Duration < 0 {
		return simerr.New(simerr.KindBuild, "fuzz: negative duration %v", o.Duration)
	}
	if o.Deadline < 0 {
		return simerr.New(simerr.KindBuild, "fuzz: negative deadline %v", o.Deadline)
	}
	if o.ShrinkBudget < 0 {
		return simerr.New(simerr.KindBuild, "fuzz: negative shrink budget %d", o.ShrinkBudget)
	}
	if len(o.Profiles) == 0 {
		o.Profiles = Profiles()
	} else {
		for _, p := range o.Profiles {
			if !knownProfile(p) {
				return simerr.New(simerr.KindBuild, "fuzz: unknown profile %q (have %v)", p, Profiles())
			}
		}
	}
	if len(o.Policies) == 0 {
		o.Policies = engine.SweepPolicies()
	} else {
		canon := make([]string, len(o.Policies))
		for i, p := range o.Policies {
			spec, err := secure.Resolve(p, nil)
			if err != nil {
				return &simerr.RunError{Kind: simerr.KindBuild, Detail: "policy", Err: err}
			}
			canon[i] = spec.String()
		}
		o.Policies = canon
	}
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
		if o.Workers > 8 {
			o.Workers = 8
		}
	}
	if o.Count == 0 && o.Duration <= 0 {
		o.Count = 64
	}
	*o = o.withDefaults()
	return nil
}

// withDefaults fills the oracle-stack defaults without validating. The
// oracle entry points (RunOracles, Shrink) apply it so direct callers —
// tests, the replay suite — can pass sparse Options; Campaign runs the full
// Normalize instead.
func (o Options) withDefaults() Options {
	if len(o.Policies) == 0 {
		o.Policies = engine.SweepPolicies()
	}
	if o.MaxCycles == 0 {
		o.MaxCycles = 4_000_000
	}
	if o.RefMaxInsts == 0 {
		o.RefMaxInsts = 2_000_000
	}
	if o.Deadline == 0 {
		o.Deadline = 30 * time.Second
	}
	if o.ShrinkBudget == 0 {
		o.ShrinkBudget = 250
	}
	return o
}

func knownProfile(p Profile) bool {
	for _, q := range Profiles() {
		if p == q {
			return true
		}
	}
	return false
}
