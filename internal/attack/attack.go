// Package attack implements the security evaluation (experiment T2): two
// transient-execution attacks run inside the simulator against each policy.
//
// Spectre-V1 (sandbox threat model, speculatively-accessed secret): a victim
// bounds-checks an attacker-controlled index; the attacker trains the branch,
// flushes the bound so the check resolves late, supplies an out-of-bounds
// index reaching a secret byte, and recovers it from the data cache with a
// flush+reload probe over a 256-line oracle array.
//
// Spectre-CT (constant-time threat model, NON-speculatively loaded secret):
// the victim holds a secret in a register, loaded long before and never used
// on any architecturally-reachable transmitting path while in secret mode. A
// "dump" path — architecturally benign, only ever executed with public data —
// is reached transiently via a trained branch whose guard load is flushed,
// transmitting the register secret. This is the attack that separates
// comprehensive defenses from sandbox-only taint tracking (STT class), which
// does not taint non-speculatively loaded data.
//
// Every gadget's secret byte is declared secret-typed (`.secret`), so the
// matrix also judges secret-aware (ProSpeCT-class) defenses. A fourth trial —
// Spectre-V1 with the secret deliberately NOT declared — probes the other half
// of the secret-typed contract: unmarked data is allowed to leak, and a
// secret-typed policy that blocks it is over-restricting.
//
// All attacks use only primitives the guest ISA provides (RDCYCLE timing,
// CFLUSH eviction), exactly as a real attacker would.
package attack

import (
	"fmt"
	"strconv"
	"strings"

	"levioso/internal/asm"
	"levioso/internal/core"
	"levioso/internal/cpu"
	"levioso/internal/secure"
)

// Outcome reports one policy's results over the four attacks.
type Outcome struct {
	Policy     string
	V1Correct  int // secrets recovered by Spectre-V1 (control-dependent gadget)
	V1Trials   int
	CTDCorrect int // secrets recovered by the CT data-dependence variant
	CTDTrials  int
	CTCorrect  int // secrets recovered by Spectre-CT (non-speculative secret)
	CTTrials   int
	PubCorrect int // secrets recovered by Spectre-V1 with an UNDECLARED secret
	PubTrials  int
}

// V1Leaks reports whether Spectre-V1 recovered a majority of secrets.
func (o Outcome) V1Leaks() bool { return o.V1Correct*2 > o.V1Trials }

// CTDLeaks reports whether the data-dependence variant recovered a majority.
func (o Outcome) CTDLeaks() bool { return o.CTDCorrect*2 > o.CTDTrials }

// CTLeaks reports whether Spectre-CT recovered a majority of secrets.
func (o Outcome) CTLeaks() bool { return o.CTCorrect*2 > o.CTTrials }

// PubLeaks reports whether the undeclared-secret V1 variant recovered a
// majority — expected true for any policy whose contract only protects
// declared secrets.
func (o Outcome) PubLeaks() bool { return o.PubCorrect*2 > o.PubTrials }

// DefaultSecrets are the byte values recovered per trial (non-zero: a fully
// blocked probe degenerates to guessing line 0).
var DefaultSecrets = []byte{0x5a, 0x91, 0x2c, 0xe7}

// Expect is one row of the attack expectation matrix: which of the four
// attacks are expected to recover the secret under a policy. Derived from
// the policy's documented coverage contract (secure.CoverageOf), it turns
// the per-policy leak behaviour the test suite asserts by hand into data the
// fuzzer's security oracle can check on every invocation — a policy that
// stops leaking where it must leak (broken attack machinery) is as much a
// finding as one that leaks where it promised coverage.
type Expect struct {
	V1     bool // Spectre-V1: control-dependent gadget, speculative secret
	CTData bool // ct-data variant: data-dependent gadget, non-speculative secret
	CT     bool // Spectre-CT: control-dependent gadget, non-speculative secret
	Pub    bool // Spectre-V1 with the secret NOT declared secret-typed
}

// ExpectedLeaks returns the expectation-matrix row for a policy (spec strings
// accepted, e.g. "tunable:level=ctrl").
func ExpectedLeaks(policy string) (Expect, error) {
	cov, err := secure.CoverageOf(policy)
	if err != nil {
		return Expect{}, err
	}
	switch cov {
	case secure.CoverageNone:
		return Expect{V1: true, CTData: true, CT: true, Pub: true}, nil
	case secure.CoverageCtrl:
		// Control dependencies only: blocks the control-dependent gadgets
		// (marked or not), leaks the data-dependent one.
		return Expect{CTData: true}, nil
	case secure.CoverageSandbox:
		// Taint tracking never taints non-speculatively loaded data, so both
		// non-speculative-secret attacks get through.
		return Expect{CTData: true, CT: true}, nil
	case secure.CoverageSecret:
		// Declared secrets never reach a transmitter (all three marked gadgets
		// blocked); undeclared data leaks by design.
		return Expect{Pub: true}, nil
	default:
		return Expect{}, nil
	}
}

// Leaks collapses an Outcome into the Expect shape for matrix comparison.
func (o Outcome) Leaks() Expect {
	return Expect{V1: o.V1Leaks(), CTData: o.CTDLeaks(), CT: o.CTLeaks(), Pub: o.PubLeaks()}
}

// Run executes all four attacks under each named policy (spec strings
// accepted).
func Run(policies []string, secrets []byte) ([]Outcome, error) {
	if len(secrets) == 0 {
		secrets = DefaultSecrets
	}
	var out []Outcome
	for _, pol := range policies {
		o := Outcome{Policy: pol}
		for _, s := range secrets {
			guess, err := runOne(spectreV1Src, pol, s)
			if err != nil {
				return nil, fmt.Errorf("attack: v1 under %s: %w", pol, err)
			}
			o.V1Trials++
			if guess == s {
				o.V1Correct++
			}
			guess, err = runOne(spectreCTDataSrc, pol, s)
			if err != nil {
				return nil, fmt.Errorf("attack: ct-data under %s: %w", pol, err)
			}
			o.CTDTrials++
			if guess == s {
				o.CTDCorrect++
			}
			guess, err = runOne(spectreCTSrc, pol, s)
			if err != nil {
				return nil, fmt.Errorf("attack: ct under %s: %w", pol, err)
			}
			o.CTTrials++
			if guess == s {
				o.CTCorrect++
			}
			guess, err = runOne(spectreV1PublicSrc, pol, s)
			if err != nil {
				return nil, fmt.Errorf("attack: v1-public under %s: %w", pol, err)
			}
			o.PubTrials++
			if guess == s {
				o.PubCorrect++
			}
		}
		out = append(out, o)
	}
	return out, nil
}

// runOne assembles the attack with the secret embedded, runs it under the
// policy, and returns the byte the attacker's probe recovered.
func runOne(template, policy string, secret byte) (byte, error) {
	src := strings.ReplaceAll(template, "%SECRET%", fmt.Sprint(secret))
	prog, err := asm.Assemble("attack.s", src)
	if err != nil {
		return 0, err
	}
	if _, err := core.Annotate(prog); err != nil {
		return 0, err
	}
	cfg := cpu.DefaultConfig()
	cfg.MaxCycles = 20_000_000
	c, err := cpu.New(prog, cfg, secure.MustNew(policy))
	if err != nil {
		return 0, err
	}
	res, err := c.Run()
	if err != nil {
		return 0, err
	}
	guess, err := strconv.Atoi(strings.TrimSpace(res.Output))
	if err != nil {
		return 0, fmt.Errorf("unparsable attack output %q", res.Output)
	}
	if guess < 0 || guess > 255 {
		return 0, fmt.Errorf("attack guessed %d, outside byte range", guess)
	}
	return byte(guess), nil
}

// Probe helper: verify directly against the cache model that the secret's
// oracle line is (or is not) resident after the transient window — used by
// tests to distinguish "probe failed" from "no leak happened".
func OracleLineResident(policy string, secret byte) (bool, error) {
	src := strings.ReplaceAll(spectreV1NoProbeSrc, "%SECRET%", fmt.Sprint(secret))
	prog, err := asm.Assemble("attack.s", src)
	if err != nil {
		return false, err
	}
	if _, err := core.Annotate(prog); err != nil {
		return false, err
	}
	cfg := cpu.DefaultConfig()
	cfg.MaxCycles = 20_000_000
	// Never Released: Release would invalidate c.Hier, probed after the run.
	c, err := cpu.New(prog, cfg, secure.MustNew(policy))
	if err != nil {
		return false, err
	}
	if _, err := c.Run(); err != nil {
		return false, err
	}
	addr := prog.Symbols["probebuf"] + uint64(secret)*64
	return c.Hier.ProbeD(addr), nil
}
