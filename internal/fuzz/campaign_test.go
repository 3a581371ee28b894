package fuzz

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"levioso/internal/faultinject"
	"levioso/internal/simerr"
)

// campaignTestOptions is the small, fast configuration the campaign tests
// share: one policy, no storm stage, no gadget profile (its probe loop costs
// 20M cycles per run).
func campaignTestOptions() Options {
	return Options{
		Seed:     7,
		Count:    12,
		Profiles: []Profile{ProfileStoreLoad, ProfileBranchStorm},
		Policies: []string{"unsafe"},
		NoStorm:  true,
		NoShrink: true,
	}
}

func readState(t *testing.T, dir string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, CampaignStateName))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// The determinism guarantee: a campaign canceled mid-run and resumed yields
// a state file bit-identical to an uninterrupted run's — same corpus, same
// coverage map, same finding buckets, same counters. A cancellation inside
// an epoch discards the whole epoch; one at an epoch's end keeps it.
func TestCampaignResumeDeterminism(t *testing.T) {
	opt := campaignTestOptions()

	full := t.TempDir()
	sumA, err := Campaign(context.Background(), full, opt)
	if err != nil {
		t.Fatal(err)
	}
	if sumA.Cases != opt.Count || sumA.Resumed != 0 {
		t.Fatalf("uninterrupted: cases=%d resumed=%d", sumA.Cases, sumA.Resumed)
	}

	// interrupt runs the campaign in dir, cancels it from Progress once
	// index at is folded, and returns how many cases it left committed.
	interrupt := func(dir string, at int) int {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		iopt := opt
		iopt.Progress = func(p Progress) {
			if p.Index >= at {
				cancel()
			}
		}
		sum, err := Campaign(ctx, dir, iopt)
		if err != nil {
			t.Fatal(err)
		}
		return sum.Resumed + sum.Cases
	}
	resume := func(dir string, committed int) {
		sum, err := Campaign(context.Background(), dir, opt)
		if err != nil {
			t.Fatal(err)
		}
		if sum.Resumed != committed || sum.Cases != opt.Count-committed {
			t.Errorf("resumed run: cases=%d resumed=%d, want %d/%d", sum.Cases, sum.Resumed, opt.Count-committed, committed)
		}
		if a, b := readState(t, full), readState(t, dir); string(a) != string(b) {
			t.Errorf("resumed state diverged from uninterrupted state:\n--- uninterrupted ---\n%s\n--- resumed ---\n%s", a, b)
		}
		if sumA.CoverageBits != sum.CoverageBits || sumA.CorpusSize != sum.CorpusSize {
			t.Errorf("coverage %d/%d, corpus %d/%d across resume",
				sumA.CoverageBits, sum.CoverageBits, sumA.CorpusSize, sum.CorpusSize)
		}
	}

	// Cancel at the first epoch's end: every case of it is judged before
	// its last fold, so the epoch is committed and the resume starts at the
	// boundary.
	split := t.TempDir()
	if got := interrupt(split, epochSize); got != epochSize {
		t.Errorf("canceled at the first epoch's end: %d cases committed, want %d", got, epochSize)
	}
	resume(split, epochSize)

	// Cancel after the first fold. The rest of the epoch is normally still
	// being judged, so the epoch is discarded whole and the summary comes
	// from the (absent) state file; if the scheduler let every case finish
	// before the fold ran, the epoch is committed whole. Nothing in between
	// is ever committed.
	cut := t.TempDir()
	got := interrupt(cut, 1)
	t.Logf("canceled inside the first epoch: %d cases committed", got)
	switch got {
	case 0:
		if _, err := os.Stat(filepath.Join(cut, CampaignStateName)); !os.IsNotExist(err) {
			t.Errorf("a discarded first epoch left a state file: %v", err)
		}
	case epochSize:
	default:
		t.Errorf("canceled inside the first epoch: %d cases committed, want 0 or %d", got, epochSize)
	}
	resume(cut, got)
}

// Workers is throughput only: the same seed judged on 1, 2 and 8
// goroutines writes byte-identical state files.
func TestCampaignWorkersIdentical(t *testing.T) {
	opt := campaignTestOptions()
	opt.Count = 2*epochSize + epochSize/2 // a truncated last epoch too
	var want []byte
	for _, w := range []int{1, 2, 8} {
		wopt := opt
		wopt.Workers = w
		dir := t.TempDir()
		sum, err := Campaign(context.Background(), dir, wopt)
		if err != nil {
			t.Fatal(err)
		}
		if sum.Mutated == 0 {
			t.Errorf("workers=%d: no mutated case; the comparison is vacuous", w)
		}
		got := readState(t, dir)
		if want == nil {
			want = got
		} else if string(got) != string(want) {
			t.Errorf("workers=%d: state differs from workers=1:\n--- workers=1 ---\n%s\n--- workers=%d ---\n%s", w, want, w, got)
		}
	}
}

// A version-1 state file was written under per-case admission; resuming it
// under epochs would diverge, so it is refused even when its seed and
// options match.
func TestCampaignRefusesV1State(t *testing.T) {
	opt := campaignTestOptions()
	if err := opt.Normalize(); err != nil {
		t.Fatal(err)
	}
	digest := strings.Replace(optionsDigest(opt), fmt.Sprintf("v%d ", campaignStateVersion), "v1 ", 1)
	v1 := fmt.Sprintf(`{"version":1,"seed":%d,"digest":%q,"next_index":5}`, opt.Seed, digest)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, CampaignStateName), []byte(v1), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Campaign(context.Background(), dir, opt); simerr.KindOf(err) != simerr.KindBuild {
		t.Errorf("v1 state accepted: %v", err)
	}
}

// A resumed campaign must refuse a changed configuration instead of silently
// mixing verdict streams.
func TestCampaignRejectsChangedOptions(t *testing.T) {
	opt := campaignTestOptions()
	opt.Count = 2
	dir := t.TempDir()
	if _, err := Campaign(context.Background(), dir, opt); err != nil {
		t.Fatal(err)
	}

	changed := opt
	changed.Policies = []string{"fence"}
	if _, err := Campaign(context.Background(), dir, changed); simerr.KindOf(err) != simerr.KindBuild {
		t.Errorf("changed policies accepted: %v", err)
	}
	reseeded := opt
	reseeded.Seed = 99
	if _, err := Campaign(context.Background(), dir, reseeded); simerr.KindOf(err) != simerr.KindBuild {
		t.Errorf("changed seed accepted: %v", err)
	}
	// Raising Count extends the campaign; it must NOT be rejected.
	extended := opt
	extended.Count = 4
	sum, err := Campaign(context.Background(), dir, extended)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Resumed != 2 || sum.Cases != 2 {
		t.Errorf("extension: cases=%d resumed=%d, want 2/2", sum.Cases, sum.Resumed)
	}
}

// TestCampaignKillResumeHelper is the subprocess body of
// TestCampaignKillResume: it runs the shared campaign in the directory named
// by the environment and is killed (SIGKILL) by the parent mid-run.
func TestCampaignKillResumeHelper(t *testing.T) {
	dir := os.Getenv("LEVFUZZ_CAMPAIGN_DIR")
	if dir == "" {
		t.Skip("subprocess helper: run by TestCampaignKillResume")
	}
	opt := campaignTestOptions()
	opt.Count = 24
	if _, err := Campaign(context.Background(), dir, opt); err != nil {
		t.Fatal(err)
	}
}

// Crash-safety under a real kill -9: the state file is rewritten atomically
// at every epoch end, so a SIGKILL at an arbitrary instant loses at most the
// epoch in flight. The resumed campaign starts at an epoch boundary,
// re-executes nothing committed and converges to the exact state an
// uninterrupted run produces.
func TestCampaignKillResume(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a subprocess campaign")
	}
	opt := campaignTestOptions()
	opt.Count = 24

	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run", "TestCampaignKillResumeHelper")
	cmd.Env = append(os.Environ(), "LEVFUZZ_CAMPAIGN_DIR="+dir)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// Wait for the first committed epoch, then kill -9.
	statePath := filepath.Join(dir, CampaignStateName)
	deadline := time.Now().Add(60 * time.Second)
	killedAt := -1
	for time.Now().Before(deadline) {
		if b, err := os.ReadFile(statePath); err == nil {
			var st struct {
				NextIndex int `json:"next_index"`
			}
			if json.Unmarshal(b, &st) == nil && st.NextIndex >= epochSize {
				killedAt = st.NextIndex
				break
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	if killedAt < 0 {
		t.Fatal("subprocess campaign made no progress")
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()

	sum, err := Campaign(context.Background(), dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	// No committed case re-executes: everything the subprocess persisted is
	// resumed, only the remainder runs. (The subprocess may have committed
	// more epochs after our last poll, so >= killedAt.)
	if sum.Resumed < killedAt {
		t.Errorf("resumed %d cases, subprocess had committed >= %d", sum.Resumed, killedAt)
	}
	if sum.Resumed%epochSize != 0 {
		t.Errorf("resumed at %d, not an epoch boundary", sum.Resumed)
	}
	if sum.Resumed+sum.Cases != opt.Count {
		t.Errorf("resumed %d + executed %d != count %d", sum.Resumed, sum.Cases, opt.Count)
	}

	// And the converged state matches an uninterrupted run bit for bit.
	ref := t.TempDir()
	if _, err := Campaign(context.Background(), ref, opt); err != nil {
		t.Fatal(err)
	}
	if a, b := readState(t, ref), readState(t, dir); string(a) != string(b) {
		t.Error("post-kill state diverged from uninterrupted state")
	}
}

// The coverage-guided scheduler must beat blind generation: same seed, same
// case budget, strictly more coverage-signature bits discovered.
func TestCampaignGuidedBeatsBlind(t *testing.T) {
	opt := campaignTestOptions()
	opt.Count = 60
	opt.Profiles = []Profile{ProfileBranchStorm, ProfileStoreLoad, ProfilePointerChase}

	guided, err := Campaign(context.Background(), t.TempDir(), opt)
	if err != nil {
		t.Fatal(err)
	}
	bopt := opt
	bopt.Blind = true
	blind, err := Campaign(context.Background(), t.TempDir(), bopt)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("coverage bits: guided=%d blind=%d (corpus %d, mutated %d)",
		guided.CoverageBits, blind.CoverageBits, guided.CorpusSize, guided.Mutated)
	if guided.Mutated == 0 {
		t.Error("guided campaign never mutated")
	}
	if guided.CoverageBits <= blind.CoverageBits {
		t.Errorf("guided coverage %d not larger than blind %d", guided.CoverageBits, blind.CoverageBits)
	}
}

// Mutation check under the scheduler: a planted commit-stall fault must
// still surface as a limits finding, get shrunk, and land in a campaign
// bucket with its repro.
func TestCampaignInjectedFaultCaught(t *testing.T) {
	opt := campaignTestOptions()
	opt.Count = 3
	opt.Profiles = []Profile{ProfileBranchStorm}
	opt.NoShrink = false
	opt.ShrinkBudget = 60
	opt.Faults = &faultinject.Plan{Seed: 1, Faults: []faultinject.Fault{
		{Kind: faultinject.CommitStall, Start: 100},
	}}

	dir := t.TempDir()
	sum, err := Campaign(context.Background(), dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	var hit *FindingBucket
	for _, b := range sum.Buckets {
		if b.Oracle == OracleLimits {
			hit = b
		}
	}
	if hit == nil {
		t.Fatalf("no limits bucket from the injected stall; buckets: %+v", sum.Buckets)
	}
	if len(hit.Repros) == 0 {
		t.Fatal("limits bucket has no repro")
	}
	r, err := LoadRepro(filepath.Join(dir, hit.Repros[0]))
	if err != nil {
		t.Fatal(err)
	}
	if r.OrigInsts == 0 || r.Insts >= r.OrigInsts {
		t.Errorf("repro not shrunk: %d insts (orig %d)", r.Insts, r.OrigInsts)
	}
}

// A repro that cannot be written is logged, not silently dropped: the
// finding still lands in its bucket, without a repro name. Permission bits
// do not stop a root test run, so a directory squats on each repro's name.
func TestCampaignReproWriteFailureLogged(t *testing.T) {
	opt := campaignTestOptions()
	opt.Count = 3
	opt.Profiles = []Profile{ProfileBranchStorm}
	opt.Faults = &faultinject.Plan{Seed: 1, Faults: []faultinject.Fault{
		{Kind: faultinject.CommitStall, Start: 100},
	}}
	var log bytes.Buffer
	opt.Log = &log

	dir := t.TempDir()
	for i := 0; i < opt.Count; i++ {
		name := (&Case{Profile: ProfileBranchStorm, Index: i}).Name() + ".json"
		if err := os.Mkdir(filepath.Join(dir, name), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	sum, err := Campaign(context.Background(), dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	if sum.FindingCount == 0 {
		t.Fatal("the injected stall produced no finding")
	}
	if !strings.Contains(log.String(), "repro write failed") {
		t.Errorf("repro write failure not logged:\n%s", log.String())
	}
	for _, b := range sum.Buckets {
		if len(b.Repros) != 0 {
			t.Errorf("bucket %s/%s/%s names repros that were never written: %v", b.Oracle, b.Policy, b.Kind, b.Repros)
		}
	}
}
