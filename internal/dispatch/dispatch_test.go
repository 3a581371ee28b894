package dispatch

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"levioso/internal/cpu"
	"levioso/internal/engine"
	"levioso/internal/isa"
	"levioso/internal/obs"
	"levioso/internal/simerr"
)

// TestMain re-execs the test binary as a wire-protocol worker when the
// marker variable is set: Proc(os.Args[0]) then spawns real subprocess
// workers that speak the real protocol over real pipes. Fuzzing's worker
// processes are re-execs too; they inherit the marker but are told apart by
// their -test.fuzzworker flag.
func TestMain(m *testing.M) {
	if os.Getenv("LEVIOSO_DISPATCH_WORKER") == "1" && !slices.Contains(os.Args[1:], "-test.fuzzworker") {
		if err := ServeWorker(context.Background(), os.Stdin, os.Stdout); err != nil {
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Setenv("LEVIOSO_DISPATCH_WORKER", "1") // inherited by Proc children
	os.Exit(m.Run())
}

const testSrc = `
func main() {
	var i;
	var s = 7;
	for (i = 0; i < 50; i = i + 1) { s = s * 31 + i; }
	print(s & 1023);
	return s & 63;
}`

func testProgram(t *testing.T) *isa.Program {
	t.Helper()
	prog, _, err := engine.Compile("cell.lc", testSrc, true)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func testCoordinator(t *testing.T, cfg Config) *Coordinator {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	co, err := New(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { co.Close() })
	return co
}

// wantResult is the fault-free ground truth, computed directly.
func wantResult(t *testing.T, prog *isa.Program, policy string) *engine.Result {
	t.Helper()
	res, err := engine.Run(context.Background(), engine.Request{
		Name: "cell.lc", Program: prog, Verify: true,
		Overrides: engine.Overrides{Policy: policy},
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func sameResult(a, b *engine.Result) bool {
	return a.ExitCode == b.ExitCode && a.Output == b.Output && a.Stats == b.Stats
}

// TestExecuteMatchesEngine proves every transport — inproc, in-memory pipe,
// real subprocess — produces bit-identical results to a direct engine.Run.
func TestExecuteMatchesEngine(t *testing.T) {
	prog := testProgram(t)
	want := wantResult(t, prog, "levioso")
	spawners := map[string]Spawner{"inproc": Inproc(), "pipe": Pipe(), "proc": Proc(os.Args[0])}
	for name, sp := range spawners {
		t.Run(name, func(t *testing.T) {
			co := testCoordinator(t, Config{Workers: 2, Spawn: sp, CacheEntries: -1})
			got, err := co.Execute(context.Background(), &Cell{
				Name: "cell.lc", Program: prog, Verify: true,
				Overrides: engine.Overrides{Policy: "levioso"},
			})
			if err != nil {
				t.Fatal(err)
			}
			if !sameResult(got, want) {
				t.Fatalf("dispatched result differs:\n got=%+v\nwant=%+v", got, want)
			}
		})
	}
}

// TestSharedCache: an identical second cell is served from the
// content-addressed cache without touching a worker.
func TestSharedCache(t *testing.T) {
	prog := testProgram(t)
	co := testCoordinator(t, Config{Workers: 1})
	cell := func() *Cell {
		return &Cell{Name: "cell.lc", Program: prog, Overrides: engine.Overrides{Policy: "fence"}}
	}
	first, err := co.Execute(context.Background(), cell())
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first execution reported cached")
	}
	second, err := co.Execute(context.Background(), cell())
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("identical second cell missed the cache")
	}
	if !sameResult(first, second) {
		t.Fatalf("cached result differs: %+v vs %+v", first, second)
	}
	if st := co.Snapshot(); st.Cache.Hits != 1 || st.Cache.Misses != 1 {
		t.Fatalf("cache counters: %+v", st.Cache)
	}
}

// TestTypedErrorRoundTrip: a permanent simulation failure keeps its simerr
// kind across the wire and is not retried.
func TestTypedErrorRoundTrip(t *testing.T) {
	prog := testProgram(t)
	reg := obs.NewRegistry()
	co := testCoordinator(t, Config{Workers: 1, Spawn: Pipe(), Registry: reg})
	_, err := co.Execute(context.Background(), &Cell{
		Name: "cell.lc", Program: prog,
		Overrides: engine.Overrides{Policy: "unsafe", MaxCycles: 10},
	})
	if !errors.Is(err, simerr.ErrCycleLimit) {
		t.Fatalf("want cycle-limit across the wire, got %v", err)
	}
	if st := co.Snapshot(); st.Retries != 0 {
		t.Fatalf("permanent failure consumed %d retries", st.Retries)
	}
}

// flakyWorker fails with transport errors until `failures` is drained,
// then delegates to a real inproc worker.
type flakyWorker struct {
	failures *atomic.Int64
	real     inprocWorker
}

func (w *flakyWorker) Execute(ctx context.Context, c *Cell) (*engine.Result, error) {
	if w.failures.Add(-1) >= 0 {
		return nil, transportErr("injected flake")
	}
	return w.real.Execute(ctx, c)
}
func (w *flakyWorker) Kill()        { w.real.Kill() }
func (w *flakyWorker) Close() error { return w.real.Close() }

// TestRetriesRecoverTransient: transient failures burn retries, then the
// cell completes with the right answer.
func TestRetriesRecoverTransient(t *testing.T) {
	prog := testProgram(t)
	want := wantResult(t, prog, "levioso")
	var failures atomic.Int64
	failures.Store(2)
	co := testCoordinator(t, Config{
		Workers:     1,
		Spawn:       func(ctx context.Context) (Worker, error) { return &flakyWorker{failures: &failures}, nil },
		MaxAttempts: 4,
		Backoff:     time.Millisecond,
	})
	got, err := co.Execute(context.Background(), &Cell{
		Name: "cell.lc", Program: prog, Verify: true,
		Overrides: engine.Overrides{Policy: "levioso"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sameResult(got, want) {
		t.Fatal("recovered result differs from ground truth")
	}
	if st := co.Snapshot(); st.Retries != 2 || st.Restarts != 2 {
		t.Fatalf("want 2 retries and 2 restarts, got %+v", st)
	}
}

// TestBreakerTripsAndRecovers drives one worker through closed → open →
// half-open → closed and checks the trip is counted.
func TestBreakerTripsAndRecovers(t *testing.T) {
	prog := testProgram(t)
	var failures atomic.Int64
	failures.Store(2) // threshold: trips the breaker, worker stays alive
	co := testCoordinator(t, Config{
		Workers:          1,
		Spawn:            func(ctx context.Context) (Worker, error) { return &flakyWorker{failures: &failures}, nil },
		MaxAttempts:      5,
		Backoff:          time.Millisecond,
		BreakerThreshold: 2,
		BreakerCooldown:  5 * time.Millisecond,
		CrashLoopBudget:  10,
	})
	got, err := co.Execute(context.Background(), &Cell{
		Name: "cell.lc", Program: prog, Overrides: engine.Overrides{Policy: "fence"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || got.Stats.Committed == 0 {
		t.Fatalf("bad recovered result: %+v", got)
	}
	st := co.Snapshot()
	if st.BreakerTrips == 0 {
		t.Fatalf("breaker never tripped: %+v", st)
	}
	if s := co.slots[0].br.current(); s != breakerClosed {
		t.Fatalf("breaker should have closed after recovery, is %v", s)
	}
}

// TestCrashLoopBudgetExhaustion: a worker that always dies takes its slot
// down permanently; with one slot, the coordinator fails fast.
func TestCrashLoopBudgetExhaustion(t *testing.T) {
	prog := testProgram(t)
	var failures atomic.Int64
	failures.Store(1 << 30)
	co := testCoordinator(t, Config{
		Workers:         1,
		Spawn:           func(ctx context.Context) (Worker, error) { return &flakyWorker{failures: &failures}, nil },
		MaxAttempts:     50,
		Backoff:         time.Millisecond,
		BreakerCooldown: time.Millisecond,
		CrashLoopBudget: 3,
	})
	_, err := co.Execute(context.Background(), &Cell{
		Name: "cell.lc", Program: prog, Overrides: engine.Overrides{Policy: "unsafe"},
	})
	if err == nil {
		t.Fatal("execute succeeded against a permanently dead fleet")
	}
	// The terminal state must arrive: either the acquire saw all workers
	// dead, or the last transport error surfaced after budget exhaustion.
	if st := co.Snapshot(); st.WorkersAlive != 0 {
		t.Fatalf("slot not retired: %+v", st)
	}
	if _, err := co.Execute(context.Background(), &Cell{
		Name: "cell.lc", Program: prog, Overrides: engine.Overrides{Policy: "unsafe"},
	}); !errors.Is(err, ErrAllWorkersDead) {
		t.Fatalf("want ErrAllWorkersDead fast-fail, got %v", err)
	}
}

// TestAdmissionControlSheds: beyond QueueDepth, Admit returns a typed,
// transient, introspectable shed error.
func TestAdmissionControlSheds(t *testing.T) {
	co := testCoordinator(t, Config{Workers: 1, QueueDepth: 2})
	adm, err := co.Admit(2)
	if err != nil {
		t.Fatal(err)
	}
	_, err = co.Admit(1)
	var shed *ShedError
	if !errors.As(err, &shed) {
		t.Fatalf("want *ShedError, got %v", err)
	}
	if shed.Pending != 2 || shed.Capacity != 2 {
		t.Fatalf("shed envelope: %+v", shed)
	}
	if !errors.Is(err, simerr.ErrShed) || !simerr.Transient(err) {
		t.Fatalf("shed error lost its taxonomy: %v", err)
	}
	adm.Release()
	adm, err = co.Admit(1)
	if err != nil {
		t.Fatalf("post-release admit failed: %v", err)
	}
	adm.Release()
	if st := co.Snapshot(); st.Shed != 1 || st.Pending != 0 {
		t.Fatalf("admission counters: %+v", st)
	}
}

// TestConcurrentBatch floods a small pool with many concurrent cells across
// policies and checks every result against ground truth — the retry/slot
// machinery must neither lose nor cross wires under contention.
func TestConcurrentBatch(t *testing.T) {
	prog := testProgram(t)
	policies := []string{"unsafe", "fence", "levioso", "delay"}
	want := make(map[string]*engine.Result, len(policies))
	for _, p := range policies {
		want[p] = wantResult(t, prog, p)
	}
	co := testCoordinator(t, Config{Workers: 3, Spawn: Pipe(), QueueDepth: -1, CacheEntries: -1})
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 32; i++ {
		p := policies[i%len(policies)]
		wg.Add(1)
		go func(p string) {
			defer wg.Done()
			got, err := co.Execute(context.Background(), &Cell{
				Name: "cell.lc", Program: prog, Verify: true,
				Overrides: engine.Overrides{Policy: p},
			})
			if err != nil {
				errs <- err
				return
			}
			if !sameResult(got, want[p]) {
				errs <- errors.New(p + ": result differs from ground truth")
			}
		}(p)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// batchAsm is a mixed population of distinct programs: a counted loop, a
// pointer chase and a data-dependent branch pattern.
var batchAsm = map[string]string{
	"loop": `
main:
	addi t0, zero, 200
	addi t1, zero, 0
loop:
	addi t1, t1, 3
	addi t0, t0, -1
	bne t0, zero, loop
	sd t1, 0(gp)
	halt zero
`,
	"chase": `
main:
	addi t0, zero, 64
	sd zero, 64(gp)
	addi t1, zero, 8
next:
	ld t0, 0(t0)
	addi t1, t1, -1
	bne t1, zero, next
	halt zero
`,
	"branchy": `
main:
	addi t0, zero, 100
	addi t2, zero, 0
top:
	andi t1, t0, 1
	beq t1, zero, even
	addi t2, t2, 7
	jal zero, join
even:
	addi t2, t2, -2
join:
	addi t0, t0, -1
	bne t0, zero, top
	sd t2, 8(gp)
	halt zero
`,
}

// TestInprocBatchMatchesRun runs a population of distinct programs, larger
// than the pool, through in-process pools of several widths with the cache
// off, and demands every cell's result equal its individually-run twin:
// cores sharing a process must share no simulation state.
func TestInprocBatchMatchesRun(t *testing.T) {
	var progs []*isa.Program
	for name, src := range batchAsm {
		prog, _, err := engine.Assemble(name+".s", src, false)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			progs = append(progs, prog)
		}
	}
	want := make([]*engine.Result, len(progs))
	for i, prog := range progs {
		want[i] = wantResult(t, prog, "unsafe")
	}
	for _, workers := range []int{0, 1, 2, 16} {
		co := testCoordinator(t, Config{Workers: workers, Spawn: Inproc(), QueueDepth: -1, CacheEntries: -1})
		got := make([]*engine.Result, len(progs))
		errs := make([]error, len(progs))
		var wg sync.WaitGroup
		for i, prog := range progs {
			wg.Add(1)
			go func(i int, prog *isa.Program) {
				defer wg.Done()
				got[i], errs[i] = co.Execute(context.Background(), &Cell{
					Name: "cell.lc", Program: prog, Verify: true,
					Overrides: engine.Overrides{Policy: "unsafe"},
				})
			}(i, prog)
		}
		wg.Wait()
		for i := range progs {
			if errs[i] != nil {
				t.Fatalf("workers=%d cell %d: %v", workers, i, errs[i])
			}
			if !sameResult(got[i], want[i]) {
				t.Errorf("workers=%d cell %d diverged:\n got %+v\nwant %+v", workers, i, got[i], want[i])
			}
		}
	}
}

// TestBadPolicyRejectedLocally: option validation fails before any worker
// or attempt is spent.
func TestBadPolicyRejectedLocally(t *testing.T) {
	prog := testProgram(t)
	co := testCoordinator(t, Config{Workers: 1})
	_, err := co.Execute(context.Background(), &Cell{
		Name: "cell.lc", Program: prog, Overrides: engine.Overrides{Policy: "nonesuch"},
	})
	if !errors.Is(err, simerr.ErrBuild) {
		t.Fatalf("want typed build error, got %v", err)
	}
}

// TestProgramlessCellIsBuildError: a cell with neither Program nor Image is
// the cell's own fault on every transport — a permanent build error, counted
// under its kind and never retried.
func TestProgramlessCellIsBuildError(t *testing.T) {
	for name, sp := range map[string]Spawner{"inproc": Inproc(), "pipe": Pipe()} {
		t.Run(name, func(t *testing.T) {
			co := testCoordinator(t, Config{Workers: 1, Spawn: sp})
			_, err := co.Execute(context.Background(), &Cell{
				Name: "empty.lc", Overrides: engine.Overrides{Policy: "fence"},
			})
			if simerr.KindOf(err) != simerr.KindBuild {
				t.Fatalf("err = %v (kind %v), want a build error", err, simerr.KindOf(err))
			}
			if st := co.Snapshot(); st.Retries != 0 || st.Restarts != 0 {
				t.Fatalf("permanent failure was retried: %+v", st)
			}
			if n := co.mCells.With("build").Value(); n != 1 {
				t.Fatalf(`dispatch_cells_total{outcome="build"} = %d, want 1`, n)
			}
		})
	}
}

// TestExecuteCancelledWhileQueued: with the only slot held (TryHold), a cell
// whose context ends while it waits for a worker fails as a transient
// deadline wrapping ErrQueueTimeout — it never started — and a released
// slot serves the next cell.
func TestExecuteCancelledWhileQueued(t *testing.T) {
	prog := testProgram(t)
	co := testCoordinator(t, Config{Workers: 1})
	release, ok := co.TryHold()
	if !ok {
		t.Fatal("TryHold on an idle pool failed")
	}
	if _, ok := co.TryHold(); ok {
		t.Fatal("TryHold handed out a second slot of a one-worker pool")
	}
	cell := func() *Cell {
		return &Cell{Name: "cell.lc", Program: prog, Overrides: engine.Overrides{Policy: "unsafe"}}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := co.Execute(ctx, cell())
	if !errors.Is(err, ErrQueueTimeout) || !errors.Is(err, simerr.ErrDeadline) || !simerr.Transient(err) {
		t.Fatalf("want a transient deadline wrapping ErrQueueTimeout, got %v", err)
	}
	release()
	release() // idempotent: must not hand the slot back twice
	if _, err := co.Execute(context.Background(), cell()); err != nil {
		t.Fatalf("after release: %v", err)
	}
	// The slot recycles asynchronously after the cell's reply.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, ok := co.TryHold(); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("slot not back after the cell finished")
		}
	}
	if _, ok := co.TryHold(); ok {
		t.Fatal("double release duplicated the slot")
	}
}

// TestWorkerKillMidCall: killing the subprocess under an in-flight call
// surfaces a transient transport error and the pool self-heals.
func TestWorkerKillMidCall(t *testing.T) {
	prog := testProgram(t)
	sp := Pipe()
	var cur atomic.Value // holds Worker
	wrap := func(ctx context.Context) (Worker, error) {
		w, err := sp(ctx)
		if err == nil {
			cur.Store(w)
		}
		return w, err
	}
	co := testCoordinator(t, Config{Workers: 1, Spawn: wrap, MaxAttempts: 3, Backoff: time.Millisecond})
	// Kill the live worker; the next call hits a dead pipe, gets a
	// transport error, and the restart path replaces the worker.
	cur.Load().(Worker).Kill()
	got, err := co.Execute(context.Background(), &Cell{
		Name: "cell.lc", Program: prog, Overrides: engine.Overrides{Policy: "unsafe"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.Committed == 0 {
		t.Fatalf("bad result after self-heal: %+v", got)
	}
	if st := co.Snapshot(); st.Restarts == 0 {
		t.Fatalf("no restart recorded: %+v", st)
	}
}

// recordingWorker records the order in which cells start.
type recordingWorker struct {
	mu      *sync.Mutex
	started *[]string
}

func (w recordingWorker) Execute(ctx context.Context, c *Cell) (*engine.Result, error) {
	w.mu.Lock()
	*w.started = append(*w.started, c.Name)
	w.mu.Unlock()
	return &engine.Result{}, nil
}
func (recordingWorker) Kill()        {}
func (recordingWorker) Close() error { return nil }

// TestGrantsFollowAdmissionOrder: with one slot, the cells of 100 seeded
// batches start batch by batch and, within a batch, in index order — however
// late each cell's goroutine asks, and with some cells withdrawn before they
// ask at all.
func TestGrantsFollowAdmissionOrder(t *testing.T) {
	var mu sync.Mutex
	var started []string
	w := recordingWorker{mu: &mu, started: &started}
	co := testCoordinator(t, Config{
		Workers: 1, QueueDepth: -1, CacheEntries: -1,
		Spawn: func(ctx context.Context) (Worker, error) { return w, nil },
	})
	rng := rand.New(rand.NewSource(7))
	type call struct {
		adm      *Admission
		i        int
		name     string
		withdraw bool
		delay    time.Duration
	}
	var calls []call
	var want []string
	var adms []*Admission
	for b := 0; b < 100; b++ {
		n := 1 + rng.Intn(8)
		adm, err := co.Admit(n)
		if err != nil {
			t.Fatal(err)
		}
		adms = append(adms, adm)
		for i := 0; i < n; i++ {
			c := call{adm: adm, i: i, name: fmt.Sprintf("%d/%d", b, i),
				withdraw: rng.Intn(10) == 0, delay: time.Duration(rng.Intn(200)) * time.Microsecond}
			if !c.withdraw {
				want = append(want, c.name)
			}
			calls = append(calls, c)
		}
	}
	rng.Shuffle(len(calls), func(i, j int) { calls[i], calls[j] = calls[j], calls[i] })
	var wg sync.WaitGroup
	for _, c := range calls {
		wg.Add(1)
		go func(c call) {
			defer wg.Done()
			time.Sleep(c.delay)
			if c.withdraw {
				c.adm.Withdraw(c.i)
				return
			}
			if _, err := c.adm.Execute(context.Background(), c.i, &Cell{Name: c.name}); err != nil {
				t.Error(err)
			}
		}(c)
	}
	wg.Wait()
	for _, adm := range adms {
		adm.Release()
	}
	if len(started) != len(want) {
		t.Fatalf("%d cells started, want %d", len(started), len(want))
	}
	for k := range want {
		if started[k] != want[k] {
			t.Fatalf("start %d: cell %s, want %s (admission order broken)", k, started[k], want[k])
		}
	}
	if co.Pending() != 0 {
		t.Fatalf("admitted capacity leaked: %d pending", co.Pending())
	}
}

// TestTryHoldYieldsToAdmitted: an idle slot is not held while an admitted
// cell is still due one; once that cell withdraws, it is.
func TestTryHoldYieldsToAdmitted(t *testing.T) {
	co := testCoordinator(t, Config{Workers: 1})
	adm, err := co.Admit(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := co.TryHold(); ok {
		t.Fatal("TryHold jumped ahead of an admitted cell")
	}
	adm.Withdraw(0)
	release, ok := co.TryHold()
	if !ok {
		t.Fatal("TryHold failed on an idle pool with nothing admitted waiting")
	}
	release()
	adm.Release()
}

// TestCellConfigRunsThatCore: a cell carrying its own core configuration
// runs on that core in process, is keyed apart from the same cell on the
// default core, and is refused by a wire worker as a permanent build error.
func TestCellConfigRunsThatCore(t *testing.T) {
	prog := testProgram(t)
	cfg := cpu.DefaultConfig()
	cfg.BDTEntries = 4
	cfg.Predictor.ForceMispredictRate = 0.2
	cell := func(cfg *cpu.Config) *Cell {
		return &Cell{Name: "cell.lc", Program: prog, Verify: true, Config: cfg,
			Overrides: engine.Overrides{Policy: "levioso"}}
	}
	want, err := engine.Run(context.Background(), engine.Request{
		Name: "cell.lc", Program: prog, Verify: true, Config: &cfg,
		Overrides: engine.Overrides{Policy: "levioso"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if def := wantResult(t, prog, "levioso"); def.Stats == want.Stats {
		t.Fatal("test config does not change the run; pick another")
	}

	co := testCoordinator(t, Config{Workers: 1, CacheEntries: -1})
	got, err := co.Execute(context.Background(), cell(&cfg))
	if err != nil {
		t.Fatal(err)
	}
	if !sameResult(got, want) {
		t.Fatalf("configured cell diverged from engine.Run:\n got=%+v\nwant=%+v", got, want)
	}

	ctx := context.Background()
	onCfg, ok1 := resultKey(ctx, cell(&cfg))
	onDefault, ok2 := resultKey(ctx, cell(nil))
	if !ok1 || !ok2 || onCfg == onDefault {
		t.Fatalf("config not in the result key: %q (%v) vs %q (%v)", onCfg, ok1, onDefault, ok2)
	}

	wire := testCoordinator(t, Config{Workers: 1, Spawn: Pipe(), CacheEntries: -1})
	if _, err := wire.Execute(ctx, cell(&cfg)); !errors.Is(err, simerr.ErrBuild) {
		t.Fatalf("stdio worker ran a configured cell: want a build error, got %v", err)
	}
	if st := wire.Snapshot(); st.Retries != 0 || st.Restarts != 0 {
		t.Fatalf("permanent rejection was retried: %+v", st)
	}
}

// TestBackoffRule: the one backoff rule doubles per step up to its shift
// cap, stops at the ceiling, and adds ±50% jitter from one Int63n draw per
// call on the owner's seeded source, so a seed replays the same delays.
func TestBackoffRule(t *testing.T) {
	j := newJitter(7)
	rng := rand.New(rand.NewSource(7))
	base := 10 * time.Millisecond
	for _, tc := range []struct {
		n, maxShift int
		ceiling     time.Duration
	}{{0, 6, 0}, {3, 6, 0}, {9, 6, 0}, {0, 10, time.Second}, {5, 10, time.Second}, {12, 10, time.Second}} {
		d := base << min(tc.n, tc.maxShift)
		if tc.ceiling > 0 && d > tc.ceiling {
			d = tc.ceiling
		}
		want := d + time.Duration(rng.Int63n(int64(d))) - d/2
		if got := j.backoff(base, tc.n, tc.maxShift, tc.ceiling); got != want || got < d/2 || got >= d+d/2 {
			t.Fatalf("backoff(%v, %d, %d, %v) = %v, want %v (within ±50%% of %v)",
				base, tc.n, tc.maxShift, tc.ceiling, got, want, d)
		}
	}
}
