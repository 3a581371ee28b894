package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"levioso/internal/fuzz"
	"levioso/internal/obs"
)

// fuzzCampaign runs fixed-size coverage-guided campaigns (default options:
// the full policy sweep, coverage on) back to back, each in a fresh
// directory with its own seed. It is the only workload that runs the
// generator, the mutator, the oracle stack with a coverage sink, and disk
// writes: the campaign state file is rewritten atomically after every case.
type fuzzCampaign struct {
	root     string
	seed     uint64
	count    int
	reg      *obs.Registry
	open     string       // the prepared campaign start reopens
	openOpt  fuzz.Options // its options
	runs     int          // measured campaigns; campaign i uses seed CaseSeed(seed, i)
	findings int          // over every measured campaign
}

// fuzzProfiles is every generator profile but the Spectre gadget. The
// gadget's security oracle reports a false leak when the planted secret is 1
// (about one gadget case in 255; see bench/README.md), which would fail the
// benchmark on some seeds.
func fuzzProfiles() []fuzz.Profile {
	var out []fuzz.Profile
	for _, p := range fuzz.Profiles() {
		if p != fuzz.ProfileGadget {
			out = append(out, p)
		}
	}
	return out
}

// prepareFuzzCampaign runs the short campaign that start reopens. It also
// serves as the warm-up: it runs the generator, the oracles and the state
// writes before anything is timed.
func prepareFuzzCampaign(ctx context.Context, o *options) (instance, error) {
	f := &fuzzCampaign{root: o.workDir, seed: o.seed, count: o.sizes.fuzzCount, reg: obs.NewRegistry(),
		open:    filepath.Join(o.workDir, "open"),
		openOpt: fuzz.Options{Seed: o.seed, Count: o.sizes.fuzzWarm, Profiles: fuzzProfiles()}}
	sum, err := fuzz.Campaign(ctx, f.open, f.openOpt)
	if err != nil {
		return nil, err
	}
	if sum.FindingCount > 0 {
		return nil, fmt.Errorf("%d findings in the prepared campaign", sum.FindingCount)
	}
	return f, nil
}

// start reopens the prepared campaign, which has no case left to run: the
// options check, state-file load and coverage decode that every resumed
// campaign does before its first case.
func (f *fuzzCampaign) start(ctx context.Context) error {
	sum, err := fuzz.Campaign(ctx, f.open, f.openOpt)
	if err != nil {
		return err
	}
	if sum.Resumed != f.openOpt.Count || sum.Cases != 0 {
		return fmt.Errorf("reopened campaign resumed at %d and ran %d cases, want %d and 0", sum.Resumed, sum.Cases, f.openOpt.Count)
	}
	return nil
}

func (f *fuzzCampaign) stop() {}

// campaign runs one measured campaign in a fresh directory. Each case is
// timed from the previous case's commit (or the campaign start) to its own,
// through the campaign's Progress callback.
func (f *fuzzCampaign) campaign(ctx context.Context, rec *recorder, tr *tracer) error {
	i := f.runs
	f.runs++
	dir := filepath.Join(f.root, fmt.Sprintf("c%03d", i))
	defer os.RemoveAll(dir)
	last := time.Now()
	opt := fuzz.Options{Seed: fuzz.CaseSeed(f.seed, i), Count: f.count, Profiles: fuzzProfiles()}
	opt.Progress = func(fuzz.Progress) {
		now := time.Now()
		rec.add(last, now, 1, 0)
		if tr != nil {
			tr.add(tr.id(), 0, 0, "fuzz.case", last, now)
		}
		rec.tick()
		last = time.Now()
	}
	sum, err := fuzz.Campaign(obs.WithRegistry(ctx, f.reg), dir, opt)
	if err != nil {
		return err
	}
	if sum.Cases != f.count {
		return fmt.Errorf("campaign %d committed %d of %d cases", i, sum.Cases, f.count)
	}
	f.findings += sum.FindingCount
	if sum.FindingCount > 0 {
		rec.add(last, last, 0, sum.FindingCount)
	}
	return nil
}

// warm does nothing: the prepared campaign was the warm-up.
func (f *fuzzCampaign) warm(context.Context) error { return nil }

// measure runs whole campaigns until stop; the last one may end after it.
func (f *fuzzCampaign) measure(ctx context.Context, stop time.Time, rec *recorder, tr *tracer) error {
	for time.Now().Before(stop) {
		if err := f.campaign(ctx, rec, tr); err != nil {
			return err
		}
	}
	return nil
}

// check: every campaign must end with zero findings; measure already
// counted them as failed cases.
func (f *fuzzCampaign) check() int { return 0 }

func (f *fuzzCampaign) stages() []stage { return engineStages(f.reg, "", "fuzz.case") }

func (f *fuzzCampaign) layerMetrics() map[string]float64 { return nil }

func (f *fuzzCampaign) notes(time.Duration) []string {
	return []string{fmt.Sprintf("fuzz: %d campaigns of %d cases, %d findings", f.runs, f.count, f.findings)}
}
