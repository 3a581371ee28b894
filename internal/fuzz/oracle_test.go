package fuzz

import (
	"context"
	"slices"
	"strconv"
	"strings"
	"testing"

	"levioso/internal/engine"
	"levioso/internal/faultinject"
)

// quickPolicies keeps per-test oracle runs cheap; the full policy matrix is
// exercised by the corpus replay test and the levfuzz smoke in make ci.
var quickPolicies = []string{"unsafe", "fence", "levioso"}

// A sample of every profile must come out of the full oracle stack clean:
// the generator's contract is programs that terminate, never fault, and
// agree with the reference model under every policy.
func TestOraclesCleanOnGenerated(t *testing.T) {
	for _, p := range Profiles() {
		c, err := Generate(p, CaseSeed(3, 1), 1)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		v := RunOracles(context.Background(), c, Options{Policies: quickPolicies})
		if v.Skipped {
			t.Errorf("%s: skipped: %s", p, v.SkipReason)
		}
		for _, f := range v.Findings {
			t.Errorf("%s: unexpected finding: %s", p, f)
		}
	}
}

// The generated Spectre-V1 gadgets must actually leak on the unprotected
// baseline — otherwise the security oracle is checking a dead probe.
func TestGadgetLeaksOnUnsafe(t *testing.T) {
	leaks := 0
	const n = 3
	for i := 0; i < n; i++ {
		c, err := Generate(ProfileGadget, CaseSeed(11, i), i)
		if err != nil {
			t.Fatal(err)
		}
		v := RunOracles(context.Background(), c, Options{Policies: []string{"unsafe"}, NoStorm: true})
		for _, f := range v.Findings {
			t.Errorf("%s: %s", c.Name(), f)
		}
		if v.GadgetLeakUnsafe {
			leaks++
		}
	}
	if leaks == 0 {
		t.Fatalf("0/%d gadgets leaked on the unsafe baseline", n)
	}
}

// The differential oracle must catch a genuinely timing-dependent program:
// RDCYCLE reads real core cycles while the reference model counts retired
// instructions, so printing it diverges — and the shrinker must preserve
// exactly the divergence class while minimizing.
func TestDifferentialCatchesRDCYCLE(t *testing.T) {
	src := "main:\n\taddi t1, zero, 5\n\taddi t2, zero, 6\n\tadd t3, t1, t2\n\trdcycle t0\n\tputi t0\n\thalt zero\n"
	prog, _, err := engine.Assemble("rdcycle-div.s", src, true)
	if err != nil {
		t.Fatal(err)
	}
	c := &Case{Seed: 1, Profile: ProfileBranchStorm, Prog: prog}
	opt := Options{Policies: []string{"unsafe"}, NoStorm: true}
	v := RunOracles(context.Background(), c, opt)
	var target *Finding
	for i, f := range v.Findings {
		if f.Oracle == OracleDifferential {
			target = &v.Findings[i]
		}
	}
	if target == nil {
		t.Fatalf("no differential finding; got %v", v.Findings)
	}

	res := Shrink(context.Background(), c, *target, opt)
	if !res.Reproduced {
		t.Fatal("shrinker could not reproduce the divergence")
	}
	if res.FinalInsts > 3 {
		t.Errorf("shrunk to %d instructions, want <= 3 (rdcycle+puti+halt)", res.FinalInsts)
	}
	found := false
	for _, f := range res.Findings {
		if f.sameClass(*target) {
			found = true
		}
	}
	if !found {
		t.Errorf("shrunk findings %v lost the target class %v", res.Findings, *target)
	}
}

// Mutation check: a seeded commit-stall fault injected under the oracle
// stack must surface as a watchdog (limits) finding and shrink to a tiny
// repro — this is the ISSUE's acceptance criterion, kept as a regression.
func TestInjectedFaultCaughtAndShrunk(t *testing.T) {
	plan := &faultinject.Plan{Seed: 1, Faults: []faultinject.Fault{
		{Kind: faultinject.CommitStall, Start: 100},
	}}
	opt := Options{Policies: []string{"unsafe"}, Faults: plan, NoStorm: true}
	c, err := Generate(ProfileBranchStorm, CaseSeed(1, 0), 0)
	if err != nil {
		t.Fatal(err)
	}
	v := RunOracles(context.Background(), c, opt)
	var target *Finding
	for i, f := range v.Findings {
		if f.Oracle == OracleLimits {
			target = &v.Findings[i]
		}
	}
	if target == nil {
		t.Fatalf("commit stall produced no limits finding; got %v", v.Findings)
	}

	res := Shrink(context.Background(), c, *target, opt)
	if !res.Reproduced {
		t.Fatal("shrinker could not reproduce the stall")
	}
	if res.FinalInsts > 25 {
		t.Errorf("shrunk repro has %d instructions, want <= 25", res.FinalInsts)
	}
	if res.Ratio() <= 0 {
		t.Errorf("shrink ratio %.2f, want > 0 (started at %d insts)", res.Ratio(), res.OrigInsts)
	}
}

// The determinism and storm-invariants oracles must tolerate a mispredict
// storm: it costs cycles but can never change architecture.
func TestStormKeepsArchitecture(t *testing.T) {
	c, err := Generate(ProfilePointerChase, CaseSeed(5, 2), 2)
	if err != nil {
		t.Fatal(err)
	}
	v := RunOracles(context.Background(), c, Options{Policies: []string{"unsafe"}})
	for _, f := range v.Findings {
		t.Errorf("storm stage: %s", f)
	}
}

// The generated gadgets declare their planted secret secret-typed, so the
// default oracle sweep (which includes prospect and every tunable level)
// holds secret-aware policies to their contract: prospect must keep the
// probe blind on a gadget case.
func TestGadgetSecretTypedJudgesProspect(t *testing.T) {
	sweep := Options{}.withDefaults().Policies
	for _, want := range []string{"prospect", "tunable:level=none", "tunable:level=comprehensive"} {
		if !slices.Contains(sweep, want) {
			t.Errorf("default oracle sweep omits %q: %v", want, sweep)
		}
	}
	c, err := Generate(ProfileGadget, CaseSeed(11, 0), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Prog.Secrets) == 0 {
		t.Fatal("gadget profile plants no declared secret")
	}
	v := RunOracles(context.Background(), c, Options{Policies: []string{"prospect"}, NoStorm: true})
	for _, f := range v.Findings {
		t.Errorf("prospect on gadget: %s", f)
	}
	if v.GadgetLeakUnsafe {
		t.Error("prospect leaked a declared secret (recorded as expected leak)")
	}
}

func TestParseFaultSpec(t *testing.T) {
	plan, err := ParseFaultSpec("commit-stall:start=1000;delay-fill:extra=10:end=0x200", 7)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Seed != 7 || len(plan.Faults) != 2 {
		t.Fatalf("got %+v", plan)
	}
	if plan.Faults[0].Kind != faultinject.CommitStall || plan.Faults[0].Start != 1000 {
		t.Errorf("fault 0: %+v", plan.Faults[0])
	}
	if plan.Faults[1].Kind != faultinject.DelayFill || plan.Faults[1].Extra != 10 || plan.Faults[1].End != 0x200 {
		t.Errorf("fault 1: %+v", plan.Faults[1])
	}
	if p, err := ParseFaultSpec("  ", 1); err != nil || p != nil {
		t.Errorf("blank spec: %v %v", p, err)
	}
	for _, bad := range []string{"no-such-kind", "commit-stall:oops", "commit-stall:start=xyz", "stuck-load:depth=3"} {
		if _, err := ParseFaultSpec(bad, 1); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

// TestGadgetGuessMustFollowSecret: case 322 of seed 1 plants secret 1, and
// under levioso-ghost its probe prints 1 whatever byte is planted — a guess
// that merely coincides with the secret is not a leak. The security oracle
// confirms a suspected leak by re-planting a different byte and must find
// the guess does not follow it.
func TestGadgetGuessMustFollowSecret(t *testing.T) {
	c, err := Generate(ProfileGadget, CaseSeed(1, 322), 322)
	if err != nil {
		t.Fatal(err)
	}
	if c.Secret != 1 {
		t.Fatalf("case 322 plants secret %d; the regression needs the coinciding secret 1", c.Secret)
	}
	v := RunOracles(context.Background(), c, Options{Policies: []string{"levioso-ghost"}, NoStorm: true})
	for _, f := range v.Findings {
		t.Errorf("levioso-ghost on case 322: %s", f)
	}

	// The confirmation run can confirm, too: under unsafe the probe
	// recovers the re-planted byte.
	alt := replanted(c)
	if alt == nil || alt.Secret == c.Secret {
		t.Fatalf("replanted(case 322) = %+v", alt)
	}
	opt := Options{}.withDefaults()
	res, err := engineRun(context.Background(), alt, "unsafe", opt.MaxCycles, opt, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(res.Output); got != strconv.Itoa(int(alt.Secret)) {
		t.Errorf("unsafe probe guessed %s, want the re-planted %d", got, alt.Secret)
	}
}

// TestOracleRunCount pins the cost of judging a case: one reference run,
// then per policy the verified run, the determinism re-run that is also the
// inspected completion run, and the storm run (dropped by NoStorm).
func TestOracleRunCount(t *testing.T) {
	n := len(quickPolicies)
	for _, p := range Profiles() {
		c, err := Generate(p, CaseSeed(3, 1), 1)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		for _, noStorm := range []bool{false, true} {
			want := 1 + 3*n
			if noStorm {
				want = 1 + 2*n
			}
			v := RunOracles(context.Background(), c, Options{Policies: quickPolicies, NoStorm: noStorm})
			if len(v.Findings) != 0 || v.Skipped || v.SkippedRuns != 0 {
				t.Fatalf("%s: not a clean case: %+v", p, v)
			}
			if v.Execs != want {
				t.Errorf("%s NoStorm=%v: %d executions, want %d", p, noStorm, v.Execs, want)
			}
		}
	}
}

// TestFaultPlanVerdicts pins the verdicts of session fault plans: a
// mispredict storm is microarchitectural and judged clean by every run,
// and a commit stall trips the watchdog on the verified run of every
// policy, which ends that policy's judging.
func TestFaultPlanVerdicts(t *testing.T) {
	c, err := Generate(ProfileBranchStorm, CaseSeed(1, 0), 0)
	if err != nil {
		t.Fatal(err)
	}
	n := len(quickPolicies)
	var stalled []string
	for _, pol := range quickPolicies {
		stalled = append(stalled, OracleLimits+"/"+pol+"/watchdog")
	}
	for _, tc := range []struct {
		name    string
		fault   faultinject.Fault
		execs   int
		classes []string
	}{
		{"mispredict-storm", faultinject.Fault{Kind: faultinject.MispredictStorm, Prob: 0.5}, 1 + 3*n, nil},
		{"commit-stall", faultinject.Fault{Kind: faultinject.CommitStall, Start: 100}, 1 + n, stalled},
	} {
		plan := &faultinject.Plan{Seed: 1, Faults: []faultinject.Fault{tc.fault}}
		v := RunOracles(context.Background(), c, Options{Policies: quickPolicies, Faults: plan})
		var classes []string
		for _, f := range v.Findings {
			classes = append(classes, f.Oracle+"/"+f.Policy+"/"+f.Kind)
		}
		if !slices.Equal(classes, tc.classes) {
			t.Errorf("%s: finding classes %v, want %v", tc.name, classes, tc.classes)
		}
		if v.Execs != tc.execs {
			t.Errorf("%s: %d executions, want %d", tc.name, v.Execs, tc.execs)
		}
	}
}
