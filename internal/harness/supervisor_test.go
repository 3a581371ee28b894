package harness

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"levioso/internal/cpu"
	"levioso/internal/faultinject"
	"levioso/internal/obs"
	"levioso/internal/secure"
	"levioso/internal/simerr"
	"levioso/internal/workloads"
)

// smallSpec is a 2x2 sweep (4 cells) cheap enough for per-test supervision
// scenarios. The watchdog is tightened so injected hangs fail fast.
func smallSpec(t *testing.T) Spec {
	t.Helper()
	var ws []workloads.Workload
	for _, name := range []string{"pchase", "matmul"} {
		w, ok := workloads.ByName(name)
		if !ok {
			t.Fatalf("missing workload %s", name)
		}
		ws = append(ws, w)
	}
	cfg := defaultRunConfig()
	cfg.WatchdogCycles = 2_000
	return Spec{
		Workloads: ws,
		Policies:  []string{"unsafe", "fence"},
		Size:      workloads.SizeTest,
		Config:    cfg,
		Verify:    true,
	}
}

// TestSupervisorDegradesAndResumes is the PR's acceptance scenario: a commit
// stall injected into exactly one cell must surface as one classified
// ErrWatchdog failure while every other cell still completes, and a journaled
// re-run must resume without re-executing the completed cells.
func TestSupervisorDegradesAndResumes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}

	spec := smallSpec(t)
	spec.Tag = "accept"
	spec.Journal = j
	spec.Faults = func(w, p string) *faultinject.Plan {
		if w == "pchase" && p == "fence" {
			return &faultinject.Plan{Faults: []faultinject.Fault{
				{Kind: faultinject.CommitStall, Start: 100}, // held forever
			}}
		}
		return nil
	}

	res, err := Supervise(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failures) != 1 {
		t.Fatalf("want exactly 1 failed cell, got %d: %+v", len(res.Failures), res.Failures)
	}
	f := res.Failures[0]
	if f.Workload != "pchase" || f.Policy != "fence" {
		t.Errorf("wrong cell failed: %s/%s", f.Workload, f.Policy)
	}
	if !errors.Is(f.Err, simerr.ErrWatchdog) {
		t.Errorf("want ErrWatchdog, got %v", f.Err)
	}
	if f.Attempts != 1 {
		t.Errorf("permanent failure retried: %d attempts", f.Attempts)
	}
	if len(res.Runs) != 3 {
		t.Fatalf("want 3 completed cells, got %d", len(res.Runs))
	}
	if tab := RenderFailures(res.Failures); tab == "" {
		t.Error("failure table empty")
	}
	if j.Len() != 3 {
		t.Errorf("journal recorded %d cells, want 3", j.Len())
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Second invocation: same journal, fault gone (the "flaky host" fixed).
	// Only the previously failed cell may execute.
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	spec2 := smallSpec(t)
	spec2.Tag = "accept"
	spec2.Journal = j2
	var mu sync.Mutex
	var executed []string
	spec2.testOnRun = func(w, p string, attempt int) {
		mu.Lock()
		executed = append(executed, w+"/"+p)
		mu.Unlock()
	}
	res2, err := Supervise(context.Background(), spec2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Resumed != 3 {
		t.Errorf("resumed %d cells, want 3", res2.Resumed)
	}
	if len(executed) != 1 || executed[0] != "pchase/fence" {
		t.Errorf("re-executed %v, want only pchase/fence", executed)
	}
	if len(res2.Failures) != 0 {
		t.Errorf("clean re-run still failed: %+v", res2.Failures)
	}
	if len(res2.Runs) != 4 {
		t.Errorf("want all 4 cells after resume, got %d", len(res2.Runs))
	}
	if j2.Len() != 4 {
		t.Errorf("journal holds %d cells after resume, want 4", j2.Len())
	}
}

// TestSupervisorRetriesTransient proves the retry loop: a panic injected only
// into the first attempt is recovered, classified transient, and the retry
// (with the fault disarmed via FirstAttempts) succeeds.
func TestSupervisorRetriesTransient(t *testing.T) {
	spec := smallSpec(t)
	spec.Retries = 1
	spec.RetryBackoff = time.Millisecond
	spec.Faults = func(w, p string) *faultinject.Plan {
		if w == "matmul" && p == "unsafe" {
			return &faultinject.Plan{Faults: []faultinject.Fault{
				{Kind: faultinject.Panic, Start: 100, FirstAttempts: 1},
			}}
		}
		return nil
	}
	var mu sync.Mutex
	attempts := map[string]int{}
	spec.testOnRun = func(w, p string, attempt int) {
		mu.Lock()
		if attempt > attempts[w+"/"+p] {
			attempts[w+"/"+p] = attempt
		}
		mu.Unlock()
	}
	res, err := Supervise(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failures) != 0 {
		t.Fatalf("transient panic not retried to success: %+v", res.Failures)
	}
	if len(res.Runs) != 4 {
		t.Errorf("want 4 runs, got %d", len(res.Runs))
	}
	if attempts["matmul/unsafe"] != 2 {
		t.Errorf("faulted cell ran %d attempts, want 2", attempts["matmul/unsafe"])
	}
	if attempts["pchase/unsafe"] != 1 {
		t.Errorf("clean cell retried: %d attempts", attempts["pchase/unsafe"])
	}
}

// TestSupervisorDeadlineExhaustsRetries: an unmeetable per-run deadline is
// transient, so the supervisor retries it the configured number of times and
// then reports KindDeadline with the attempt count.
func TestSupervisorDeadlineExhaustsRetries(t *testing.T) {
	spec := smallSpec(t)
	w, _ := workloads.ByName("pchase")
	spec.Workloads = []workloads.Workload{w}
	spec.Policies = []string{"unsafe"}
	spec.Retries = 2
	spec.RetryBackoff = time.Millisecond
	spec.RunTimeout = time.Nanosecond
	res, err := Supervise(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failures) != 1 {
		t.Fatalf("want 1 failure, got %+v", res.Failures)
	}
	f := res.Failures[0]
	if !errors.Is(f.Err, simerr.ErrDeadline) {
		t.Errorf("want ErrDeadline, got %v", f.Err)
	}
	if f.Attempts != 3 {
		t.Errorf("deadline retried %d attempts, want 3 (1 + 2 retries)", f.Attempts)
	}
	var re *simerr.RunError
	if !errors.As(f.Err, &re) || re.Workload != "pchase" || re.Attempt != 3 {
		t.Errorf("run context missing on failure: %+v", re)
	}
}

// TestSupervisorDeadlinesNeverParkSlots: a sweep in which every attempt hits
// its deadline piles up consecutive transient failures on every slot — far
// past a default breaker's threshold — yet no slot sits out a breaker
// cooldown (1s by default): in-process slots have no breaker to trip.
func TestSupervisorDeadlinesNeverParkSlots(t *testing.T) {
	spec := smallSpec(t)
	spec.Retries = 2
	spec.RetryBackoff = time.Millisecond
	spec.RunTimeout = time.Nanosecond
	start := time.Now()
	res, err := Supervise(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if len(res.Failures) != 4 {
		t.Fatalf("want all 4 cells failed, got %+v", res.Failures)
	}
	for _, f := range res.Failures {
		if !errors.Is(f.Err, simerr.ErrDeadline) || f.Attempts != 3 {
			t.Errorf("%s/%s: %d attempts, %v; want 3 deadline attempts", f.Workload, f.Policy, f.Attempts, f.Err)
		}
	}
	if elapsed >= time.Second {
		t.Fatalf("12 deadline attempts took %v: a slot waited out a breaker cooldown", elapsed)
	}
}

// TestSupervisorMetrics pins the supervisor's instrumentation: a sweep run
// with an isolated registry in the context must record attempts, retries
// (one injected transient), the per-attempt harness.cell span histogram, and
// per-outcome cell dispositions — without touching the process default
// registry.
func TestSupervisorMetrics(t *testing.T) {
	spec := smallSpec(t)
	spec.Retries = 1
	spec.RetryBackoff = time.Millisecond
	spec.Faults = func(w, p string) *faultinject.Plan {
		if w == "matmul" && p == "unsafe" {
			return &faultinject.Plan{Faults: []faultinject.Fault{
				{Kind: faultinject.Panic, Start: 100, FirstAttempts: 1},
			}}
		}
		return nil
	}
	reg := obs.NewRegistry()
	res, err := Supervise(obs.WithRegistry(context.Background(), reg), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failures) != 0 {
		t.Fatalf("unexpected failures: %+v", res.Failures)
	}
	// 4 cells, one of which needed a retry after the injected panic.
	if got := reg.Counter("harness_attempts_total", "").Value(); got != 5 {
		t.Errorf("harness_attempts_total = %d, want 5", got)
	}
	if got := reg.Counter("harness_retries_total", "").Value(); got != 1 {
		t.Errorf("harness_retries_total = %d, want 1", got)
	}
	if got := reg.Counter("harness_faults_injected_total", "").Value(); got != 2 {
		t.Errorf("harness_faults_injected_total = %d, want 2 (both attempts carried a plan)", got)
	}
	cells := reg.CounterVec("harness_cells_total", "", "outcome")
	if got := cells.With("ok").Value(); got != 4 {
		t.Errorf(`harness_cells_total{outcome="ok"} = %d, want 4`, got)
	}
	if got := cells.With("failed").Value(); got != 0 {
		t.Errorf(`harness_cells_total{outcome="failed"} = %d, want 0`, got)
	}
	spans := reg.HistogramVec("harness_stage_seconds", "", obs.LatencyBuckets(), "stage", "outcome")
	if got := spans.With("cell", "ok").Snapshot().Count; got != 4 {
		t.Errorf(`harness_stage_seconds{stage="cell",outcome="ok"} count = %d, want 4`, got)
	}
	if got := spans.With("cell", "panic").Snapshot().Count; got != 1 {
		t.Errorf(`harness_stage_seconds{stage="cell",outcome="panic"} count = %d, want 1`, got)
	}
}

// TestSupervisorCancelled pins the interrupt contract levbench relies on:
// cancelling the sweep context (what SIGINT does) surfaces as a sweep-level
// context.Canceled — not a pile of per-cell failures — while cells completed
// before the interrupt stay journaled for the resume path.
func TestSupervisorCancelled(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	spec := smallSpec(t)
	spec.Tag = "interrupt"
	spec.Journal = j
	var once sync.Once
	spec.testOnRun = func(w, p string, attempt int) {
		once.Do(cancel) // the "SIGINT" lands while the first cell is starting
	}
	res, err := Supervise(ctx, spec)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got res=%+v err=%v", res, err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// The resumed run completes only what the interrupted one did not.
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	already := j2.Len()
	spec2 := smallSpec(t)
	spec2.Tag = "interrupt"
	spec2.Journal = j2
	res2, err := Supervise(context.Background(), spec2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Resumed != already {
		t.Errorf("resumed %d cells, journal held %d", res2.Resumed, already)
	}
	if len(res2.Runs) != 4 || len(res2.Failures) != 0 {
		t.Errorf("resume incomplete: %d runs, %+v", len(res2.Runs), res2.Failures)
	}
}

// TestSupervisorResumesPastCrashMidFsync simulates the worst-case interrupt:
// the process dies while fsyncing the journal's final record, leaving it
// torn. The next run must heal the torn tail, keep every intact record, and
// re-execute only the cell whose record was lost — never a completed one.
func TestSupervisorResumesPastCrashMidFsync(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	spec := smallSpec(t)
	spec.Tag = "crash"
	spec.Journal = j
	res, err := Supervise(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 4 || j.Len() != 4 {
		t.Fatalf("clean sweep: %d runs, %d journaled", len(res.Runs), j.Len())
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the final record in half, as a crash mid-fsync would.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
	last := lines[len(lines)-1]
	torn := append(bytes.Join(lines[:len(lines)-1], nil), last[:len(last)/2]...)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Len() != 3 {
		t.Fatalf("journal after torn tail: %d entries, want 3", j2.Len())
	}
	spec2 := smallSpec(t)
	spec2.Tag = "crash"
	spec2.Journal = j2
	var mu sync.Mutex
	var executed []string
	spec2.testOnRun = func(w, p string, attempt int) {
		mu.Lock()
		executed = append(executed, w+"/"+p)
		mu.Unlock()
	}
	res2, err := Supervise(context.Background(), spec2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Resumed != 3 {
		t.Errorf("resumed %d cells, want 3", res2.Resumed)
	}
	if len(executed) != 1 {
		t.Fatalf("re-executed %v, want exactly the torn cell", executed)
	}
	if _, ok := j2.Lookup("crash", res.Runs[0].Workload, res.Runs[0].Policy); len(res.Runs) > 0 && !ok {
		// Sanity only: at least one completed cell must still resolve.
		t.Errorf("completed cell lost from healed journal")
	}
	if len(res2.Runs) != 4 || len(res2.Failures) != 0 {
		t.Errorf("post-crash sweep incomplete: %d runs, %+v", len(res2.Runs), res2.Failures)
	}
	if j2.Len() != 4 {
		t.Errorf("journal holds %d after re-run, want 4", j2.Len())
	}
}

// TestSweepStrictOnFailure pins Sweep's contract: any failed cell turns into
// an error (the legacy all-or-nothing behaviour tests and benches rely on).
func TestSweepStrictOnFailure(t *testing.T) {
	spec := smallSpec(t)
	spec.Faults = func(w, p string) *faultinject.Plan {
		if w == "pchase" && p == "unsafe" {
			return &faultinject.Plan{Faults: []faultinject.Fault{
				{Kind: faultinject.CommitStall, Start: 100},
			}}
		}
		return nil
	}
	if _, err := Sweep(spec); !errors.Is(err, simerr.ErrWatchdog) {
		t.Fatalf("strict Sweep must surface the cell error, got %v", err)
	}
}

// TestSweepSharedProgramImmutable pins the property the Sweep doc comment
// claims: one built program can back many concurrent cores because nothing
// in simulation mutates it. The byte-exact marshal comparison catches direct
// writes; the race detector (tier-1 runs with -race) catches unsynchronized
// ones.
func TestSweepSharedProgramImmutable(t *testing.T) {
	w, ok := workloads.ByName("pchase")
	if !ok {
		t.Fatal("missing workload pchase")
	}
	prog := w.MustBuild(workloads.SizeTest)
	before, err := prog.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	policies := []string{"unsafe", "fence", "delay", "levioso"}
	var wg sync.WaitGroup
	errs := make([]error, len(policies))
	for i, pol := range policies {
		wg.Add(1)
		go func(i int, pol string) {
			defer wg.Done()
			c, err := cpu.New(prog, defaultRunConfig(), secure.MustNew(pol))
			if err != nil {
				errs[i] = err
				return
			}
			_, errs[i] = c.Run()
		}(i, pol)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s: %v", policies[i], err)
		}
	}

	after, err := prog.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Error("shared program mutated by concurrent simulation")
	}
}

func TestJournalTornLineTolerated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	good := Run{Workload: "w1", Policy: "p1", ExitCode: 7, Stats: cpu.Stats{Cycles: 123}}
	if err := j.Record("t", good); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-write: a torn, unterminated half-entry.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"tag":"t","workload":"w2","poli`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Len() != 1 {
		t.Fatalf("want 1 surviving entry, got %d", j2.Len())
	}
	rec, ok := j2.Lookup("t", "w1", "p1")
	if !ok || rec.ExitCode != 7 || rec.Stats.Cycles != 123 {
		t.Errorf("surviving entry corrupted: %+v ok=%v", rec, ok)
	}
	if _, ok := j2.Lookup("t", "w2", "p1"); ok {
		t.Error("torn entry resurrected")
	}
	// The journal must still be appendable after loading past a torn tail:
	// OpenJournal heals the unterminated line, so a record written now must
	// survive the next load instead of merging into the garbage.
	if err := j2.Record("t", Run{Workload: "w3", Policy: "p1"}); err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	j3, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if _, ok := j3.Lookup("t", "w3", "p1"); !ok {
		t.Error("entry appended after torn tail lost on reload")
	}
}

func TestJournalTagNamespacing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.Record("rob=128", Run{Workload: "w", Policy: "p", Stats: cpu.Stats{Cycles: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := j.Record("rob=256", Run{Workload: "w", Policy: "p", Stats: cpu.Stats{Cycles: 2}}); err != nil {
		t.Fatal(err)
	}
	a, ok1 := j.Lookup("rob=128", "w", "p")
	b, ok2 := j.Lookup("rob=256", "w", "p")
	if !ok1 || !ok2 || a.Stats.Cycles != 1 || b.Stats.Cycles != 2 {
		t.Errorf("tags collided: %+v / %+v", a, b)
	}
	if _, ok := j.Lookup("", "w", "p"); ok {
		t.Error("untagged lookup matched tagged entry")
	}
}

// Record fsyncs each entry and Sync is exposed for explicit barriers (a
// supervisor checkpointing before a risky phase): after either, a fresh
// reader of the file — not the same handle — must see the entry complete.
func TestJournalRecordDurable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.Record("t", Run{Workload: "w1", Policy: "p1", ExitCode: 3}); err != nil {
		t.Fatal(err)
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	// Reopen the path independently while the writer is still open: the
	// synced entry must already be complete on disk.
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if rec, ok := j2.Lookup("t", "w1", "p1"); !ok || rec.ExitCode != 3 {
		t.Fatalf("synced entry not visible to a fresh reader: %+v ok=%v", rec, ok)
	}
}
