package engine

import (
	"context"
	"fmt"
	"runtime/debug"

	"levioso/internal/asm"
	"levioso/internal/core"
	"levioso/internal/cpu"
	"levioso/internal/isa"
	"levioso/internal/lang"
	"levioso/internal/obs"
	"levioso/internal/ref"
	"levioso/internal/secure"
	"levioso/internal/simerr"
)

// buildErr wraps a pre-simulation failure into the typed taxonomy.
func buildErr(name, stage string, err error) *simerr.RunError {
	return &simerr.RunError{
		Kind:   simerr.KindBuild,
		Detail: fmt.Sprintf("%s: %s", name, stage),
		Err:    err,
	}
}

// Resolve materializes the request's program input. Exactly one of Program,
// Binary, Source, AsmText must be set; anything else is a typed build error.
// The annotation statistics are non-nil only when Resolve ran the Levioso
// pass (Source/AsmText inputs without NoAnnotate). Each build stage it runs
// (load, compile, assemble, annotate) records a span into ctx's obs
// registry; pre-built Program inputs record nothing.
func Resolve(ctx context.Context, req *Request) (*isa.Program, *core.AnnotateStats, error) {
	n := 0
	if req.Program != nil {
		n++
	}
	if req.Binary != nil {
		n++
	}
	if req.Source != "" {
		n++
	}
	if req.AsmText != "" {
		n++
	}
	if n != 1 {
		return nil, nil, buildErr(req.name(), "request",
			fmt.Errorf("engine: want exactly one program input (Program, Binary, Source, AsmText), got %d", n))
	}
	switch {
	case req.Program != nil:
		return req.Program, nil, nil
	case req.Binary != nil:
		sp := obs.StartSpan(ctx, "engine.load")
		prog, err := Load(req.name(), req.Binary)
		sp.End(outcomeOf(err))
		return prog, nil, err
	case req.Source != "":
		sp := obs.StartSpan(ctx, "engine.compile")
		text, err := lang.CompileToAsm(req.name(), req.Source)
		sp.End(outcomeOf(err))
		if err != nil {
			return nil, nil, buildErr(req.name(), "compile", err)
		}
		return assembleStaged(ctx, req, req.name()+".s", "internal: generated assembly rejected", text)
	default:
		return assembleStaged(ctx, req, req.name(), "assemble", req.AsmText)
	}
}

// assembleStaged runs the assemble and (optionally) annotate stages with
// span instrumentation — the tail both Source and AsmText inputs share.
func assembleStaged(ctx context.Context, req *Request, file, stage, text string) (*isa.Program, *core.AnnotateStats, error) {
	sp := obs.StartSpan(ctx, "engine.assemble")
	prog, err := asm.Assemble(file, text)
	sp.End(outcomeOf(err))
	if err != nil {
		return nil, nil, buildErr(req.name(), stage, err)
	}
	if req.NoAnnotate {
		return prog, nil, nil
	}
	asp := obs.StartSpan(ctx, "engine.annotate")
	prog, annot, err := annotateProg(req.name(), prog, true)
	asp.End(outcomeOf(err))
	return prog, annot, err
}

// Load unmarshals a LEV64 binary image.
func Load(name string, img []byte) (*isa.Program, error) {
	prog := new(isa.Program)
	if err := prog.UnmarshalBinary(img); err != nil {
		return nil, buildErr(name, "load", err)
	}
	return prog, nil
}

// EmitAsm compiles LevC source to LEV64 assembly text (the levc -S path).
func EmitAsm(name, src string) (string, error) {
	text, err := lang.CompileToAsm(name, src)
	if err != nil {
		return "", buildErr(name, "compile", err)
	}
	return text, nil
}

// Compile compiles LevC source into an executable program image, optionally
// running the Levioso annotation pass (the statistics are returned when it
// ran). This is the same pipeline lang.Compile and the workload suite use.
func Compile(name, src string, annotate bool) (*isa.Program, *core.AnnotateStats, error) {
	text, err := lang.CompileToAsm(name, src)
	if err != nil {
		return nil, nil, buildErr(name, "compile", err)
	}
	prog, err := asm.Assemble(name+".s", text)
	if err != nil {
		return nil, nil, buildErr(name, "internal: generated assembly rejected", err)
	}
	return annotateProg(name, prog, annotate)
}

// Assemble assembles LEV64 assembly into a program image, optionally running
// the Levioso annotation pass (hand-written assembly benefits from the same
// reconvergence analysis as compiled code).
func Assemble(name, src string, annotate bool) (*isa.Program, *core.AnnotateStats, error) {
	prog, err := asm.Assemble(name, src)
	if err != nil {
		return nil, nil, buildErr(name, "assemble", err)
	}
	return annotateProg(name, prog, annotate)
}

func annotateProg(name string, prog *isa.Program, annotate bool) (*isa.Program, *core.AnnotateStats, error) {
	if !annotate {
		return prog, nil, nil
	}
	st, err := core.Annotate(prog)
	if err != nil {
		return nil, nil, buildErr(name, "annotate", err)
	}
	return prog, &st, nil
}

// Annotate runs the Levioso annotation pass on an already-built program and
// returns the pass statistics (the compiler-statistics experiment re-runs it
// on workload builds to measure the pass itself).
func Annotate(prog *isa.Program) (core.AnnotateStats, error) {
	st, err := core.Annotate(prog)
	if err != nil {
		return core.AnnotateStats{}, buildErr("prog", "annotate", err)
	}
	return st, nil
}

// Listing disassembles a program image (levc -l, levas -l, levdump).
func Listing(prog *isa.Program) string { return asm.Listing(prog) }

// Simulate runs prog on the out-of-order core under the named policy. A
// panic anywhere inside — the core, a policy, an injected fault — is
// recovered into simerr.ErrPanic, so one bad run cannot take down a sweep
// supervisor or a serving daemon. Unknown policies and invalid
// configurations surface as simerr.KindBuild. The core goes back to
// cpu.New's pool after a run that did not panic.
func Simulate(ctx context.Context, prog *isa.Program, cfg cpu.Config, policy string) (res cpu.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &simerr.RunError{
				Kind:   simerr.KindPanic,
				Detail: fmt.Sprint(r),
				Stack:  string(debug.Stack()),
			}
		}
	}()
	pol, err := secure.New(policy)
	if err != nil {
		return cpu.Result{}, &simerr.RunError{Kind: simerr.KindBuild, Detail: "policy", Err: err}
	}
	c, err := cpu.New(prog, cfg, pol)
	if err != nil {
		return cpu.Result{}, &simerr.RunError{Kind: simerr.KindBuild, Detail: "core construction failed", Err: err}
	}
	res, err = c.RunContext(ctx)
	c.Release()
	return res, err
}

// Reference runs prog on the functional reference interpreter with
// cooperative context cancellation (checked every few thousand
// instructions), mirroring the core's RunContext contract: expiry surfaces
// as simerr.ErrDeadline, the instruction limit as simerr.ErrInstLimit, and
// an architectural fault (bad PC, out-of-range or misaligned access) as
// simerr.ErrMemFault — every failure is a typed *simerr.RunError, so fuzzing
// oracles and supervisors never have to string-match reference errors.
func Reference(ctx context.Context, prog *isa.Program, lim ref.Limits) (ref.Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	m := ref.New(prog)
	max := lim.MaxInsts
	if max == 0 {
		max = ref.DefaultMaxInsts
	}
	const checkMask = 1<<14 - 1
	for !m.Halted() {
		if m.Insts() >= max {
			return ref.Result{}, &simerr.RunError{
				Kind: simerr.KindInstLimit, PC: m.PC,
				Detail: fmt.Sprintf("ref: instruction limit %d exceeded", max),
			}
		}
		if err := m.Step(); err != nil {
			return ref.Result{}, &simerr.RunError{
				Kind: simerr.KindMemFault, PC: m.PC,
				Detail: "reference step faulted", Err: err,
			}
		}
		if m.Insts()&checkMask == 0 {
			select {
			case <-ctx.Done():
				return ref.Result{}, &simerr.RunError{
					Kind: simerr.KindDeadline, PC: m.PC, Err: ctx.Err(),
				}
			default:
			}
		}
	}
	return ref.Result{
		ExitCode: m.ExitCode(), Output: m.Output(),
		Insts: m.Insts(), Regs: m.Regs,
	}, nil
}

// VerifyAgainst cross-checks a core run's architectural outcome (exit code
// and console output) against a reference result, failing with a typed
// divergence error on mismatch.
func VerifyAgainst(exit uint64, output string, want ref.Result) error {
	if exit != want.ExitCode || output != want.Output {
		return &simerr.RunError{
			Kind: simerr.KindDivergence,
			Detail: fmt.Sprintf("got exit %d output %q, want %d %q",
				exit, output, want.ExitCode, want.Output),
		}
	}
	return nil
}
