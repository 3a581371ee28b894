// Package fuzz is the differential fuzzing subsystem: a seeded program
// generator over the LEV64 ISA, an oracle stack that judges every generated
// program under every registered secure-speculation policy (architectural
// differential vs the reference model, bit-exact determinism, core
// invariants under fault-injected squash storms, the gadget security oracle,
// and panic/limit capture through simerr), an auto-shrinker that minimizes
// failures to small repros, and one driver, Campaign: a coverage-guided,
// resumable loop whose whole state lives in one atomically rewritten file.
package fuzz

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"levioso/internal/cpu"
	"levioso/internal/journal"
	"levioso/internal/obs"
	"levioso/internal/simerr"
)

// A campaign is a resumable loop in which every case is either generated
// fresh or mutated from a corpus of programs that previously reached new
// machine behavior. Each case runs with a fresh cpu.CoverageSink; the union
// of the signatures of all its oracle runs is compared against the
// campaign's global coverage map, and a case that lights new bits joins the
// mutation corpus.
//
// Cases are admitted in epochs of epochSize. At an epoch's start its cases
// are scheduled in index order, on the campaign goroutine, from the corpus
// as it stands at that moment; they are judged concurrently on up to
// Workers goroutines; and their results are folded into the coverage map,
// the corpus and the finding buckets in index order as each prefix of the
// epoch completes. The whole campaign state is rewritten atomically
// (journal.WriteAtomic) at every epoch end. Every decision therefore
// depends on the seed, the case index and the state at the epoch's start,
// never on Workers or on which goroutine finished first, which gives:
//
//   - the state file is byte-identical for every Workers value;
//   - a kill -9 at any instant loses at most the epoch in flight, and a
//     rerun resumes at an epoch boundary, converging to the state an
//     uninterrupted run writes (at most epochSize-1 judged cases re-run,
//     epochSize if the kill lands inside the epoch-end write);
//   - Progress may run ahead of the state file by less than one epoch.

// epochSize is K, the number of cases one epoch admits. The schedule, and
// with it the state file, depends on it, so it is a constant rather than an
// option, and deliberately independent of Workers.
const epochSize = 8

// CampaignStateName is the state file inside a campaign directory.
const CampaignStateName = "campaign.json"

// campaignStateVersion is the on-disk state format version. Version 1 was
// written under per-case admission and cannot be resumed under epochs.
const campaignStateVersion = 2

// Progress is the running-totals snapshot handed to Options.Progress after
// every folded case (the levserve /v1/fuzz status endpoint serves these).
// It may run ahead of the state file by less than one epoch.
type Progress struct {
	Index        int `json:"index"`         // cases folded so far (absolute)
	Count        int `json:"count"`         // campaign target (0: unbounded)
	Cases        int `json:"cases"`         // cases executed this invocation
	Resumed      int `json:"resumed"`       // cases inherited from the state file
	Skipped      int `json:"skipped"`       // cases the oracles could not judge
	Execs        int `json:"execs"`         // executions this invocation (incl. shrinking)
	Mutated      int `json:"mutated"`       // cases produced by corpus mutation
	CoverageBits int `json:"coverage_bits"` // global coverage map population
	Corpus       int `json:"corpus"`        // mutation corpus size
	Findings     int `json:"findings"`      // findings recorded over the campaign's life
}

// FindingBucket aggregates campaign findings by failure class — the same
// (oracle, policy, kind) triple the shrinker preserves while minimizing.
type FindingBucket struct {
	Oracle     string   `json:"oracle"`
	Policy     string   `json:"policy,omitempty"`
	Kind       string   `json:"kind,omitempty"`
	Count      int      `json:"count"`
	FirstIndex int      `json:"first_index"`       // case index of the first observation
	Example    string   `json:"example,omitempty"` // detail string of the first observation
	Repros     []string `json:"repros,omitempty"`  // repro file names (capped)
}

// maxBucketRepros caps the repro list per bucket: the first few minimal
// repros of a failure class are diagnostic, the hundredth is disk usage.
const maxBucketRepros = 8

// CampaignSummary is one Campaign invocation's outcome, taken from the
// state file as it was last persisted.
type CampaignSummary struct {
	Cases        int // cases executed this invocation
	Resumed      int // cases inherited from the state file
	Skipped      int
	Execs        int
	Mutated      int
	CoverageBits int // global coverage map population at exit
	CorpusSize   int
	FindingCount int              // findings over the campaign's whole life
	Buckets      []*FindingBucket // sorted by class key
	Elapsed      time.Duration
}

// campaignCounts are the state's running counters; an invocation's summary
// is their difference from the counts it resumed.
type campaignCounts struct {
	NextIndex int `json:"next_index"`
	Skipped   int `json:"skipped"`
	Execs     int `json:"execs"`
	Mutated   int `json:"mutated"`
}

// campaignState is the on-disk campaign snapshot. Everything a resumed
// invocation needs to reproduce the interrupted one's decisions is here;
// nothing else is (per-case seeds re-derive from Seed via CaseSeed).
type campaignState struct {
	Version int    `json:"version"`
	Seed    uint64 `json:"seed"`
	Digest  string `json:"digest"` // option digest; a resume must match
	campaignCounts
	Coverage string                    `json:"coverage"` // global map, base64
	Corpus   []*corpusEntry            `json:"corpus,omitempty"`
	Findings map[string]*FindingBucket `json:"findings,omitempty"`

	global *cpu.CoverageSink // Coverage, decoded; not persisted directly
}

func (st *campaignState) findingCount() int {
	n := 0
	for _, b := range st.Findings {
		n += b.Count
	}
	return n
}

// buckets returns the finding buckets sorted by class key.
func (st *campaignState) buckets() []*FindingBucket {
	keys := make([]string, 0, len(st.Findings))
	for k := range st.Findings {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*FindingBucket, 0, len(keys))
	for _, k := range keys {
		out = append(out, st.Findings[k])
	}
	return out
}

// optionsDigest pins every option that shapes per-case verdicts. A campaign
// directory resumed under a different digest would silently mix verdict
// streams, so Campaign refuses it. Count is deliberately excluded: raising
// it extends a finished campaign without changing any completed case.
// Workers is excluded because it shapes nothing.
func optionsDigest(o Options) string {
	return fmt.Sprintf("v%d profiles=%v policies=%v maxcycles=%d refmax=%d nostorm=%t noshrink=%t shrinkbudget=%d blind=%t faults=%v",
		campaignStateVersion, o.Profiles, o.Policies, o.MaxCycles, o.RefMaxInsts,
		o.NoStorm, o.NoShrink, o.ShrinkBudget, o.Blind, o.Faults)
}

// Campaign runs (or resumes) the campaign in dir until Count cases are
// committed, the Duration elapses, or the context is canceled. An epoch
// with a case cut short by cancellation is discarded whole, so stopping a
// campaign at any point — including kill -9 mid-write — and rerunning the
// identical invocation yields a state file bit-identical to an
// uninterrupted run's.
func Campaign(ctx context.Context, dir string, opt Options) (*CampaignSummary, error) {
	if err := opt.Normalize(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("fuzz: campaign dir: %w", err)
	}
	statePath := filepath.Join(dir, CampaignStateName)
	digest := optionsDigest(opt)
	st, err := loadCampaignState(statePath, opt.Seed, digest)
	if err != nil {
		return nil, err
	}

	if opt.Duration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opt.Duration)
		defer cancel()
	}

	start := time.Now()
	met := newCampaignMetrics(ctx)
	met.covBits.Set(int64(st.global.Count()))
	met.corpus.Set(int64(len(st.Corpus)))

	base := st.campaignCounts
	for ctx.Err() == nil && (opt.Count == 0 || st.NextIndex < opt.Count) {
		prev, prevFindings := st.campaignCounts, st.findingCount()
		if !runEpoch(ctx, dir, opt, st, base) {
			// The epoch's in-memory folds are void: fall back to the last
			// persisted state, which the resumed campaign starts from.
			if st, err = loadCampaignState(statePath, opt.Seed, digest); err != nil {
				return nil, err
			}
			break
		}
		st.Coverage = encodeCoverage(st.global)
		if err := saveCampaignState(statePath, st); err != nil {
			return nil, err
		}

		met.cases.Add(uint64(st.NextIndex - prev.NextIndex))
		met.execs.Add(uint64(st.Execs - prev.Execs))
		met.mutated.Add(uint64(st.Mutated - prev.Mutated))
		met.findings.Add(uint64(st.findingCount() - prevFindings))
		met.covBits.Set(int64(st.global.Count()))
		met.corpus.Set(int64(len(st.Corpus)))
	}

	return &CampaignSummary{
		Cases:        st.NextIndex - base.NextIndex,
		Resumed:      base.NextIndex,
		Skipped:      st.Skipped - base.Skipped,
		Execs:        st.Execs - base.Execs,
		Mutated:      st.Mutated - base.Mutated,
		CoverageBits: st.global.Count(),
		CorpusSize:   len(st.Corpus),
		FindingCount: st.findingCount(),
		Buckets:      st.buckets(),
		Elapsed:      time.Since(start),
	}, nil
}

// epochCase is one case of an epoch: scheduled on the campaign goroutine,
// judged on a worker, folded back on the campaign goroutine.
type epochCase struct {
	idx     int
	c       *Case
	parent  int // case index it was mutated from (-1: fresh)
	verdict Verdict
	shrink  *ShrinkResult
	cov     cpu.CoverageSink
	cut     bool          // the context was canceled by the time judging ended
	done    chan struct{} // closed once judged
}

// runEpoch schedules, judges and folds the epoch starting at st.NextIndex.
// Epochs are aligned to multiples of epochSize and end early at Count. It
// reports false, leaving st half-folded, when a case was cut short.
func runEpoch(ctx context.Context, dir string, opt Options, st *campaignState, base campaignCounts) bool {
	first := st.NextIndex
	end := (first/epochSize + 1) * epochSize
	if opt.Count > 0 && end > opt.Count {
		end = opt.Count
	}
	cases := make([]*epochCase, end-first)
	for i := range cases {
		ec := &epochCase{idx: first + i, parent: -1, done: make(chan struct{})}
		ec.schedule(opt, st.Corpus)
		cases[i] = ec
	}

	// Workers take cases lowest index first, so the fold below can advance
	// as soon as the epoch's first case is judged.
	var next atomic.Int64
	var wg sync.WaitGroup
	defer wg.Wait()
	for w := 0; w < min(opt.Workers, len(cases)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(cases); i = int(next.Add(1)) - 1 {
				ec := cases[i]
				if ctx.Err() == nil {
					ec.judge(ctx, opt)
				}
				ec.cut = ctx.Err() != nil
				close(ec.done)
			}
		}()
	}

	for _, ec := range cases {
		<-ec.done
		if ec.cut {
			return false
		}
		st.fold(dir, opt, ec)
		if opt.Progress != nil {
			opt.Progress(Progress{
				Index: st.NextIndex, Count: opt.Count,
				Cases: st.NextIndex - base.NextIndex, Resumed: base.NextIndex,
				Skipped: st.Skipped - base.Skipped, Execs: st.Execs - base.Execs,
				Mutated:      st.Mutated - base.Mutated,
				CoverageBits: st.global.Count(), Corpus: len(st.Corpus),
				Findings: st.findingCount(),
			})
		}
	}
	return true
}

// schedule builds the case (scheduleCase) with panic isolation. It runs on
// the campaign goroutine: it reads the corpus and bumps its Picks.
func (ec *epochCase) schedule(opt Options, corpus []*corpusEntry) {
	defer ec.recoverPanic()
	c, parent, err := scheduleCase(opt, ec.idx, corpus)
	ec.parent = parent
	if err != nil {
		ec.verdict.add(Finding{Oracle: OracleGenerator, Kind: "generate", Detail: err.Error()})
		return
	}
	ec.c = c
}

// judge runs the oracle stack over the scheduled case with panic isolation,
// shrinking the first finding when configured. The shrinker runs without the
// coverage sink: the case's signature reflects its judging runs, not however
// many shrink candidates happened to execute.
func (ec *epochCase) judge(ctx context.Context, opt Options) {
	defer ec.recoverPanic()
	if ec.c == nil {
		return
	}
	opt.Coverage = &ec.cov
	ec.verdict = RunOracles(ctx, ec.c, opt)
	if len(ec.verdict.Findings) == 0 || opt.NoShrink || ctx.Err() != nil {
		return
	}
	opt.Coverage = nil
	res := Shrink(ctx, ec.c, ec.verdict.Findings[0], opt)
	ec.shrink = &res
}

func (ec *epochCase) recoverPanic() {
	if r := recover(); r != nil {
		ec.verdict.add(Finding{Oracle: OraclePanic, Kind: "campaign",
			Detail: fmt.Sprintf("%v\n%s", r, debug.Stack())})
	}
}

// fold admits one judged case into the state: repro, coverage map, corpus,
// finding buckets and counters.
func (st *campaignState) fold(dir string, opt Options, ec *epochCase) {
	if ec.parent >= 0 {
		mutantFindings(&ec.verdict)
	}
	reproName := writeRepro(dir, opt, ec)

	// Coverage accounting and corpus admission. Gadget cases contribute
	// to the map but never to the mutation corpus (see corpusEntry).
	c := ec.c
	fresh := newBitCount(st.global, &ec.cov)
	if fresh > 0 && c != nil && c.Profile != ProfileGadget {
		img, merr := c.Prog.MarshalBinary()
		if merr == nil {
			st.Corpus = append(st.Corpus, &corpusEntry{
				Index: ec.idx, Parent: ec.parent, Profile: c.Profile,
				Binary: img, NewBits: fresh, Insts: len(c.Prog.Text),
			})
		}
	}
	st.global.Or(&ec.cov)

	for _, f := range ec.verdict.Findings {
		key := bucketKey(f)
		b := st.Findings[key]
		if b == nil {
			b = &FindingBucket{Oracle: f.Oracle, Policy: f.Policy, Kind: f.Kind, FirstIndex: ec.idx, Example: f.Detail}
			if st.Findings == nil {
				st.Findings = map[string]*FindingBucket{}
			}
			st.Findings[key] = b
		}
		b.Count++
		if reproName != "" && len(b.Repros) < maxBucketRepros &&
			(len(b.Repros) == 0 || b.Repros[len(b.Repros)-1] != reproName) {
			b.Repros = append(b.Repros, reproName)
		}
		logf(opt.Log, "fuzz: campaign %06d: %s", ec.idx, f)
	}

	st.NextIndex = ec.idx + 1
	st.Execs += ec.verdict.Execs
	if ec.shrink != nil {
		st.Execs += ec.shrink.Evals
	}
	if ec.verdict.Skipped {
		st.Skipped++
	}
	if ec.parent >= 0 {
		st.Mutated++
	}
}

// writeRepro persists the (shrunk) repro of a case with findings and
// returns its file name; a failed write is logged and yields "".
func writeRepro(dir string, opt Options, ec *epochCase) string {
	if len(ec.verdict.Findings) == 0 {
		return ""
	}
	final, findings, orig := ec.c, ec.verdict.Findings, 0
	if ec.shrink != nil {
		final, findings, orig = ec.shrink.Case, ec.shrink.Findings, ec.shrink.OrigInsts
	}
	if final == nil {
		return ""
	}
	r, err := NewRepro(final, opt.Policies, findings, orig)
	if err == nil {
		_, err = r.Write(dir)
	}
	if err != nil {
		logf(opt.Log, "fuzz: campaign %06d: repro write failed: %v", ec.idx, err)
		return ""
	}
	return r.FileName()
}

// mutantFindings drops generator-oracle findings from a mutated case's
// verdict. The generator's architectural-cleanliness contract covers
// generated programs; a mutant that faults on the reference model is an
// uninteresting input to discard (as a skip), not a simulator bug to report.
func mutantFindings(v *Verdict) {
	kept := v.Findings[:0]
	dropped := false
	for _, f := range v.Findings {
		if f.Oracle == OracleGenerator {
			dropped = true
			continue
		}
		kept = append(kept, f)
	}
	v.Findings = kept
	if dropped && len(kept) == 0 {
		v.Skipped, v.SkipReason = true, "mutant faulted on reference"
	}
}

// LoadFindings reads the finding buckets out of a campaign directory's state
// file without touching anything else — the levserve findings endpoint
// serves these while the campaign is still running (the state file is
// rewritten atomically, so a concurrent read always sees a complete
// snapshot). A directory with no state file yet yields no buckets.
func LoadFindings(dir string) ([]*FindingBucket, error) {
	b, err := os.ReadFile(filepath.Join(dir, CampaignStateName))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("fuzz: campaign state: %w", err)
	}
	st := new(campaignState)
	if err := json.Unmarshal(b, st); err != nil {
		return nil, &simerr.RunError{Kind: simerr.KindBuild, Detail: "campaign state", Err: err}
	}
	return st.buckets(), nil
}

// loadCampaignState reads the state file (a fresh state when there is none)
// and decodes its coverage map.
func loadCampaignState(path string, seed uint64, digest string) (*campaignState, error) {
	st := new(campaignState)
	b, err := os.ReadFile(path)
	switch {
	case os.IsNotExist(err):
		st.Version, st.Seed, st.Digest = campaignStateVersion, seed, digest
	case err != nil:
		return nil, fmt.Errorf("fuzz: campaign state: %w", err)
	default:
		if err := json.Unmarshal(b, st); err != nil {
			return nil, &simerr.RunError{Kind: simerr.KindBuild, Detail: "campaign state " + path, Err: err}
		}
		if st.Version != campaignStateVersion {
			return nil, simerr.New(simerr.KindBuild, "fuzz: campaign state %s: version %d, want %d", path, st.Version, campaignStateVersion)
		}
		if st.Seed != seed {
			return nil, simerr.New(simerr.KindBuild, "fuzz: campaign state %s: seed %#x, resumed with %#x", path, st.Seed, seed)
		}
		if st.Digest != digest {
			return nil, simerr.New(simerr.KindBuild, "fuzz: campaign state %s: options changed since the campaign started (state %q, now %q)", path, st.Digest, digest)
		}
	}
	if st.global, err = decodeCoverage(st.Coverage); err != nil {
		return nil, err
	}
	return st, nil
}

// saveCampaignState rewrites the state file atomically (temp file, fsync,
// rename): a crash at any instant leaves either the previous complete state
// or the new one, never a torn file.
func saveCampaignState(path string, st *campaignState) error {
	b, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return fmt.Errorf("fuzz: encode campaign state: %w", err)
	}
	return journal.WriteAtomic(path, append(b, '\n'))
}

// campaignMetrics is the campaign's obs instrument set; the registry comes
// from ctx (levfuzz uses the process default; tests and levperf can isolate
// one via obs.WithRegistry). Counters advance as each epoch is committed.
type campaignMetrics struct {
	cases    *obs.Counter
	execs    *obs.Counter
	mutated  *obs.Counter
	findings *obs.Counter
	covBits  *obs.Gauge
	corpus   *obs.Gauge
}

func newCampaignMetrics(ctx context.Context) *campaignMetrics {
	reg := obs.FromContext(ctx)
	return &campaignMetrics{
		cases:    reg.Counter("fuzz_campaign_cases_total", "campaign cases committed"),
		execs:    reg.Counter("fuzz_campaign_execs_total", "campaign executions, including shrinking"),
		mutated:  reg.Counter("fuzz_campaign_mutated_total", "campaign cases produced by corpus mutation"),
		findings: reg.Counter("fuzz_campaign_findings_total", "campaign findings recorded"),
		covBits:  reg.Gauge("fuzz_campaign_coverage_bits", "global coverage map population"),
		corpus:   reg.Gauge("fuzz_campaign_corpus_size", "mutation corpus size"),
	}
}

func logf(w io.Writer, format string, args ...any) {
	if w != nil {
		fmt.Fprintf(w, format+"\n", args...)
	}
}
