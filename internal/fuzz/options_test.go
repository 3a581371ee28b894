package fuzz

import (
	"reflect"
	"testing"
	"time"

	"levioso/internal/engine"
	"levioso/internal/simerr"
)

func TestNormalizeDefaults(t *testing.T) {
	var o Options
	if err := o.Normalize(); err != nil {
		t.Fatal(err)
	}
	if o.Count != 64 {
		t.Errorf("Count = %d, want 64", o.Count)
	}
	if o.Workers < 1 || o.Workers > 8 {
		t.Errorf("Workers = %d, want 1..8", o.Workers)
	}
	if !reflect.DeepEqual(o.Profiles, Profiles()) {
		t.Errorf("Profiles = %v", o.Profiles)
	}
	if !reflect.DeepEqual(o.Policies, engine.SweepPolicies()) {
		t.Errorf("Policies = %v", o.Policies)
	}
	if o.MaxCycles != 4_000_000 || o.RefMaxInsts != 2_000_000 {
		t.Errorf("limits: %d / %d", o.MaxCycles, o.RefMaxInsts)
	}
	if o.Deadline != 30*time.Second || o.ShrinkBudget != 250 {
		t.Errorf("deadline %v, budget %d", o.Deadline, o.ShrinkBudget)
	}
}

func TestNormalizeDurationKeepsCountUnbounded(t *testing.T) {
	o := Options{Duration: time.Second}
	if err := o.Normalize(); err != nil {
		t.Fatal(err)
	}
	if o.Count != 0 {
		t.Errorf("Count = %d, want 0 (duration-bounded)", o.Count)
	}
}

func TestNormalizeRejectsBounds(t *testing.T) {
	cases := map[string]Options{
		"negative count":    {Count: -1},
		"huge count":        {Count: MaxCount + 1},
		"negative workers":  {Workers: -1},
		"too many workers":  {Workers: MaxWorkers + 1},
		"negative duration": {Duration: -time.Second},
		"negative deadline": {Deadline: -time.Second},
		"negative budget":   {ShrinkBudget: -1},
		"unknown profile":   {Profiles: []Profile{"no-such"}},
		"unknown policy":    {Policies: []string{"no-such-policy"}},
	}
	for name, o := range cases {
		err := o.Normalize()
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		if k := simerr.KindOf(err); k != simerr.KindBuild {
			t.Errorf("%s: kind %v, want build", name, k)
		}
	}
}

// Policy specs come back canonicalized, so journals, campaign digests, and
// finding attributions see one spelling per configuration regardless of how
// the caller spelled it.
func TestNormalizeCanonicalizesPolicies(t *testing.T) {
	for _, p := range engine.SweepPolicies() {
		o := Options{Policies: []string{p}}
		if err := o.Normalize(); err != nil {
			t.Fatalf("sweep policy %q rejected: %v", p, err)
		}
		if len(o.Policies) != 1 {
			t.Fatalf("policy %q: got %v", p, o.Policies)
		}
		// Idempotence: the canonical spelling canonicalizes to itself.
		o2 := Options{Policies: []string{o.Policies[0]}}
		if err := o2.Normalize(); err != nil {
			t.Fatal(err)
		}
		if o2.Policies[0] != o.Policies[0] {
			t.Errorf("canonicalization not idempotent: %q -> %q", o.Policies[0], o2.Policies[0])
		}
	}
}
