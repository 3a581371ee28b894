// Package dispatch is the fault-tolerant batch execution tier: a
// coordinator sharding simulation cells across a pool of workers, with
// per-cell retries, per-worker circuit breakers, crash-loop-bounded
// automatic restarts, admission control with slots granted in admission
// order, and a content-addressed shared result cache.
//
// The design leans on one property end to end: the simulator is a
// deterministic pure function of (program, policy, config). That makes
// every failure safely retryable — a cell whose result never arrived can be
// replayed on any worker with no risk of double effects — and every repeat
// cacheable under one key (resultKey): a hash of the cell's policy, run
// flags and core parameters and of its program image. A cell that carries
// its LEV64 image (Cell.Image) is keyed and shipped on those bytes, so the
// coordinator, the wire and the worker daemon's cache never re-encode it.
// The failure taxonomy in internal/simerr does the rest of the work:
// transient kinds (transport, deadline, panic, shed) drive retries and
// breakers; permanent kinds (build, divergence, limits) are the cell's own
// fault, charged to the cell and never to the worker that faithfully
// reported them.
//
// Worker ownership is a token discipline: each worker slot sits in the idle
// list exactly when it is idle and trusted. A slot is granted to one ticket
// at a time, in ticket order; completion routes the slot through
// breaker/restart logic back to the idle list. This gives single-in-flight
// per worker (the wire protocol requires it) and first-come-first-served
// grants, under one mutex.
package dispatch

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"levioso/internal/engine"
	"levioso/internal/lru"
	"levioso/internal/obs"
	"levioso/internal/simerr"
)

// Config sizes the coordinator. The zero value is usable: in-process
// workers, modest pool, retries and breakers on.
type Config struct {
	// Workers is the number of worker slots. Default 4.
	Workers int
	// Spawn creates workers. Default Inproc().
	Spawn Spawner

	// MaxAttempts bounds per-cell attempts (first try included). Only
	// transient failures are retried. Default 3.
	MaxAttempts int
	// Backoff is the base retry delay, doubled per attempt (capped at
	// Backoff<<6) with ±50% jitter. Default 50ms.
	Backoff time.Duration

	// BreakerThreshold is the consecutive-transient-failure streak that
	// trips a worker's breaker open. Default 3.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker parks its slot before
	// the half-open trial. Default 1s.
	BreakerCooldown time.Duration
	// CrashLoopBudget is the number of consecutive restarts (reset by any
	// healthy response) a slot may consume before it is declared
	// permanently dead. Default 5.
	CrashLoopBudget int

	// QueueDepth caps admitted-but-unfinished cells; beyond it, Admit
	// sheds with a typed retryable error instead of letting the queue
	// collapse. It is also the largest batch that can ever be admitted.
	// Default 1024; negative means unlimited.
	QueueDepth int
	// CacheEntries sizes the shared content-addressed result cache.
	// Default 1024; negative disables caching.
	CacheEntries int

	// Registry receives the dispatch metrics. Default obs.Default().
	Registry *obs.Registry
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Workers <= 0 {
		out.Workers = 4
	}
	if out.Spawn == nil {
		out.Spawn = Inproc()
	}
	if out.MaxAttempts <= 0 {
		out.MaxAttempts = 3
	}
	if out.Backoff <= 0 {
		out.Backoff = 50 * time.Millisecond
	}
	if out.BreakerThreshold <= 0 {
		out.BreakerThreshold = 3
	}
	if out.BreakerCooldown <= 0 {
		out.BreakerCooldown = time.Second
	}
	if out.CrashLoopBudget <= 0 {
		out.CrashLoopBudget = 5
	}
	if out.QueueDepth == 0 {
		out.QueueDepth = 1024
	}
	if out.Registry == nil {
		out.Registry = obs.Default()
	}
	return out
}

// ShedError is the admission-control rejection: the queue is at capacity
// and the request was turned away before any work happened. It unwraps to a
// simerr.KindShed RunError, so errors.Is(err, simerr.ErrShed) and the
// transient classification both hold; the serve layer reads Pending and
// Capacity into the 503 envelope.
type ShedError struct {
	Pending  int64
	Capacity int64
	cause    *simerr.RunError
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("dispatch: shed: %d cells pending of %d capacity", e.Pending, e.Capacity)
}

func (e *ShedError) Unwrap() error { return e.cause }

// ErrAllWorkersDead reports that every slot exhausted its crash-loop
// budget. It is deliberately NOT transient: when the whole fleet is gone,
// retrying inside this process cannot help.
var ErrAllWorkersDead = errors.New("dispatch: all workers dead (crash-loop budget exhausted)")

// ErrQueueTimeout is what a cell's context ending while it still waits for
// an idle worker wraps (as a transient simerr.KindDeadline failure): the
// cell gave up queueing before any work happened, which serve answers with
// a retryable 503 rather than the 504 of a run that overran its deadline.
var ErrQueueTimeout = errors.New("dispatch: gave up waiting for a worker")

// errClosed reports use after Close.
var errClosed = errors.New("dispatch: coordinator closed")

// slot is one worker position in the pool: the breaker and crash-loop
// accounting survive across the worker instances that pass through it.
type slot struct {
	id string
	br *breaker

	mu       sync.Mutex
	w        Worker
	restarts int // consecutive, reset by any healthy response
	dead     bool
}

// flight is one in-flight execution of a cache key: the leader runs the
// cell, duplicates wait on done and share the outcome.
type flight struct {
	done chan struct{}
	res  *engine.Result
	err  error
}

// Coordinator shards cells across the worker pool. Safe for concurrent use.
//
// Slots are granted in admission order. Admit hands out consecutive
// tickets, and a free slot goes to ticket turn — to nobody while that
// ticket's cell has not asked yet (a batch cell still compiling), so a later
// ticket never overtakes an earlier one. A ticket is used up once: by its
// grant, or by withdrawal when its cell ends without needing a slot (a cache
// hit, a single-flight duplicate, a wait given up). A retry's ticket is used
// up, so the retry draws a fresh one and queues behind every cell admitted
// before it.
type Coordinator struct {
	cfg   Config
	slots []*slot
	cache *resultCache

	gmu     sync.Mutex
	idle    []*slot               // idle, trusted slots, longest idle first
	next    uint64                // the ticket Admit hands out next
	turn    uint64                // the ticket the next free slot goes to
	waiting map[uint64]chan *slot // tickets whose cells wait in acquire
	gone    map[uint64]bool       // withdrawn tickets turn has not reached
	pending atomic.Int64          // admitted-but-unreleased cells; written under gmu

	fmu     sync.Mutex
	flights map[string]*flight

	alive    atomic.Int64
	allDead  chan struct{}
	deadOnce sync.Once

	closed  atomic.Bool
	closeCh chan struct{}
	wg      sync.WaitGroup

	jit *jitter

	mCells        *obs.CounterVec // outcome: ok | cached | failure kind
	mRetries      *obs.Counter
	mShed         *obs.Counter
	mRestarts     *obs.Counter
	mBreakerTrips *obs.Counter
	mBreakerState *obs.GaugeVec // worker: slot id; 0 closed, 1 open, 2 half-open
	mCacheHits    *obs.Counter
	mCacheMisses  *obs.Counter
	mDedupHits    *obs.Counter
	mQueueDepth   *obs.Gauge
	mAlive        *obs.Gauge
}

// New builds the coordinator and spawns the initial worker pool. A slot
// whose first spawn fails enters the normal restart path; New only errors
// when no worker at all could be started.
func New(ctx context.Context, cfg Config) (*Coordinator, error) {
	c := cfg.withDefaults()
	co := &Coordinator{
		cfg:     c,
		cache:   newResultCache(c.CacheEntries),
		waiting: make(map[uint64]chan *slot),
		gone:    make(map[uint64]bool),
		flights: make(map[string]*flight),
		allDead: make(chan struct{}),
		closeCh: make(chan struct{}),
		jit:     newJitter(1),
	}
	r := c.Registry
	co.mCells = r.CounterVec("dispatch_cells_total", "Batch cells by final outcome.", "outcome")
	co.mRetries = r.Counter("dispatch_retries_total", "Cell attempts beyond the first.")
	co.mShed = r.Counter("dispatch_shed_total", "Cells rejected by admission control.")
	co.mRestarts = r.Counter("dispatch_worker_restarts_total", "Worker restarts after transport failures.")
	co.mBreakerTrips = r.Counter("dispatch_breaker_trips_total", "Circuit breakers tripped open.")
	co.mBreakerState = r.GaugeVec("dispatch_breaker_state", "Breaker state per worker slot (0 closed, 1 open, 2 half-open).", "worker")
	co.mCacheHits = r.Counter("dispatch_cache_hits_total", "Shared result cache hits.")
	co.mCacheMisses = r.Counter("dispatch_cache_misses_total", "Shared result cache misses.")
	co.mDedupHits = r.Counter("dispatch_dedup_hits_total", "Duplicate in-flight cells coalesced by single-flight.")
	co.mQueueDepth = r.Gauge("dispatch_queue_depth", "Admitted cells currently pending.")
	co.mAlive = r.Gauge("dispatch_workers_alive", "Worker slots not yet declared dead.")

	co.alive.Store(int64(c.Workers))
	co.mAlive.Set(int64(c.Workers))
	var started int
	for i := 0; i < c.Workers; i++ {
		s := &slot{id: fmt.Sprintf("w%d", i), br: newBreaker(c.BreakerThreshold)}
		co.slots = append(co.slots, s)
		w, err := c.Spawn(ctx)
		if err == nil {
			s.w = w
			started++
			co.requeue(s)
			continue
		}
		// First spawn failed: hand the slot to the restart path.
		co.wg.Add(1)
		go func(s *slot) {
			defer co.wg.Done()
			if co.respawn(s) {
				co.requeue(s)
			}
		}(s)
	}
	if started == 0 && c.Workers > 0 {
		// Give the async respawns a moment only in the degenerate all-failed
		// case; if nothing comes up the pool is useless.
		wctx, cancel := context.WithTimeout(ctx, helloTimeout)
		s, err := co.acquire(wctx, freshTicket)
		cancel()
		if err != nil {
			co.Close()
			if errors.Is(err, ErrAllWorkersDead) {
				return nil, err
			}
			return nil, fmt.Errorf("dispatch: no worker could be started")
		}
		co.requeue(s)
	}
	return co, nil
}

// Close tears down the pool. In-flight calls fail with transport errors.
func (co *Coordinator) Close() error {
	if !co.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(co.closeCh)
	for _, s := range co.slots {
		s.mu.Lock()
		w := s.w
		s.w = nil
		s.mu.Unlock()
		if w != nil {
			w.Kill()
			w.Close()
		}
	}
	co.wg.Wait()
	return nil
}

// ---- admission control ----

// Admission is a block of admitted cells, numbered 0..n-1 in the order their
// first attempts are granted slots. Each cell either runs through Execute or
// gives up its place with Withdraw; Release returns the block's capacity
// once all of them are done.
type Admission struct {
	co    *Coordinator
	first uint64
	n     int
}

// Admit reserves n cells of queue capacity and the next n tickets, shedding
// with a *ShedError when the queue is full.
func (co *Coordinator) Admit(n int) (*Admission, error) {
	if co.closed.Load() {
		return nil, errClosed
	}
	co.gmu.Lock()
	defer co.gmu.Unlock()
	cur := co.pending.Load()
	if cap := int64(co.cfg.QueueDepth); cap >= 0 && cur+int64(n) > cap {
		co.mShed.Add(uint64(n))
		return nil, &ShedError{
			Pending:  cur,
			Capacity: cap,
			cause:    simerr.New(simerr.KindShed, "%d pending of %d capacity", cur, cap),
		}
	}
	co.pending.Store(cur + int64(n))
	co.mQueueDepth.Set(cur + int64(n))
	a := &Admission{co: co, first: co.next, n: n}
	co.next += uint64(n)
	return a, nil
}

// Execute runs cell i of the admission through the cache and the retry loop.
func (a *Admission) Execute(ctx context.Context, i int, cell *Cell) (*engine.Result, error) {
	t := a.first + uint64(i)
	defer a.co.withdraw(t)
	res, err := a.co.run(ctx, cell, t)
	switch {
	case err == nil && res.Cached:
		a.co.mCells.With("cached").Inc()
	case err == nil:
		a.co.mCells.With("ok").Inc()
	default:
		a.co.mCells.With(simerr.KindOf(err).String()).Inc()
	}
	return res, err
}

// Withdraw gives up cell i's place in the grant order, so the cells behind
// it stop waiting for it. A cell that fails before it reaches Execute must
// withdraw; once the cell has been granted a slot it is a no-op.
func (a *Admission) Withdraw(i int) { a.co.withdraw(a.first + uint64(i)) }

// Release returns the admission's capacity and withdraws any of its cells
// still holding a place. Call it once, after every cell has finished.
func (a *Admission) Release() {
	co := a.co
	co.gmu.Lock()
	defer co.gmu.Unlock()
	for t := a.first; t < a.first+uint64(a.n); t++ {
		co.withdrawLocked(t)
	}
	co.grant()
	co.mQueueDepth.Set(co.pending.Add(-int64(a.n)))
}

// Pending reports the admitted-but-unfinished cell count (for the 503
// envelope and Retry-After estimation).
func (co *Coordinator) Pending() int64 { return co.pending.Load() }

// QueueDepth reports the admission capacity (negative = unlimited).
func (co *Coordinator) QueueDepth() int { return co.cfg.QueueDepth }

// ---- execution ----

// Execute admits one cell and runs it through the cache and the retry loop.
func (co *Coordinator) Execute(ctx context.Context, cell *Cell) (*engine.Result, error) {
	a, err := co.Admit(1)
	if err != nil {
		return nil, err
	}
	defer a.Release()
	return a.Execute(ctx, 0, cell)
}

// run is the cache + single-flight front of the retry loop. Identical cells
// — same content-addressed key — in flight at the same moment execute once:
// the first caller becomes the leader and runs the cell, duplicates wait on
// its flight and share the outcome. Dedup sits *before* the shared result
// cache, so a batch of repeats costs one simulation, not one per repeat that
// raced past a still-empty cache entry.
func (co *Coordinator) run(ctx context.Context, cell *Cell, t uint64) (*engine.Result, error) {
	if err := cell.Overrides.Normalize(); err != nil {
		return nil, err // permanent: bad cell, no attempt consumed
	}
	key, cacheable := resultKey(ctx, cell)
	if !cacheable {
		return co.runAttempts(ctx, cell, t)
	}
	for {
		co.fmu.Lock()
		if cached, ok := co.cache.Get(key); ok {
			co.fmu.Unlock()
			co.mCacheHits.Inc()
			cached.Cached = true
			return &cached, nil
		}
		if f, ok := co.flights[key]; ok {
			co.fmu.Unlock()
			co.withdraw(t) // a duplicate holds no place while it waits
			select {
			case <-f.done:
			case <-ctx.Done():
				return nil, simerr.New(simerr.KindDeadline, "dispatch: %v", ctx.Err())
			case <-co.closeCh:
				return nil, errClosed
			}
			if f.err == nil {
				co.mDedupHits.Inc()
				cp := *f.res
				cp.Cached = true
				return &cp, nil
			}
			if !simerr.Transient(f.err) {
				// Deterministic failure: every duplicate shares it.
				co.mDedupHits.Inc()
				return nil, f.err
			}
			// The leader failed transiently — its deadline, its worker's
			// luck. A waiter must not inherit that fate: loop back and
			// take its own turn (or find the next leader already flying).
			continue
		}
		f := &flight{done: make(chan struct{})}
		co.flights[key] = f
		co.mCacheMisses.Inc()
		co.fmu.Unlock()

		res, err := co.runAttempts(ctx, cell, t)
		if err == nil {
			co.cache.Put(key, *res)
		}
		f.res, f.err = res, err
		co.fmu.Lock()
		delete(co.flights, key)
		co.fmu.Unlock()
		close(f.done)
		return res, err
	}
}

// runAttempts is the per-cell retry loop: transient failures retry with
// exponential backoff up to MaxAttempts, permanent failures return at once.
// Attempts run one after another, the first on ticket t.
func (co *Coordinator) runAttempts(ctx context.Context, cell *Cell, t uint64) (*engine.Result, error) {
	var lastErr error
	for attempt := 1; attempt <= co.cfg.MaxAttempts; attempt++ {
		if attempt > 1 {
			co.mRetries.Inc()
			if err := co.sleepBackoff(ctx, attempt); err != nil {
				return nil, err
			}
		}
		res, err := co.attempt(ctx, cell, t)
		if err == nil {
			return res, nil
		}
		lastErr = err
		if !simerr.Transient(err) || ctx.Err() != nil {
			return nil, err
		}
	}
	return nil, lastErr
}

// resultCache is a content-addressed engine.Result LRU under resultKey. The
// coordinator and the worker daemon each own one; entries never go stale,
// because the simulator is deterministic.
type resultCache = lru.Cache[string, engine.Result]

// newResultCache sizes a result cache: 0 means 1024 entries, negative
// disables caching (a nil cache, on which Get always misses).
func newResultCache(n int) *resultCache {
	if n == 0 {
		n = 1024
	}
	return lru.New[string, engine.Result](n)
}

// resultKey is the content-addressed identity of a normalized cell's result
// — what the coordinator cache, single-flight dedup, and the worker daemon
// cache all coalesce on. It hashes the cell's Image when it has one and its
// Program's encoding otherwise, so the coordinator keying a cell and the
// daemon keying the frame it ships derive the same key. A disabled cache
// still gets a key: dedup works either way. The time spent is recorded as
// the engine.cachekey span.
func resultKey(ctx context.Context, cell *Cell) (string, bool) {
	if cell.Program == nil && cell.Image == nil {
		return "", false
	}
	req := cell.engineRequest()
	return engine.CacheKeyObserved(ctx, cell.Program, cell.Image, cell.Overrides.Policy, req.BuildConfig(), cell.UseRef, cell.Verify)
}

// jitter is a seeded source of backoff delays, shared by one owner's
// callers; the mutex keeps its draw sequence whole.
type jitter struct {
	mu  sync.Mutex
	rng *rand.Rand
}

func newJitter(seed int64) *jitter { return &jitter{rng: rand.New(rand.NewSource(seed))} }

// backoff is the one exponential backoff rule: base<<min(n, maxShift), at
// most ceiling when ceiling is positive, with ±50% jitter.
func (j *jitter) backoff(base time.Duration, n, maxShift int, ceiling time.Duration) time.Duration {
	d := base << min(n, maxShift)
	if ceiling > 0 && d > ceiling {
		d = ceiling
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return d + time.Duration(j.rng.Int63n(int64(d))) - d/2
}

// sleepBackoff waits the exponential-with-jitter delay before attempt n; the
// first retry waits ~Backoff.
func (co *Coordinator) sleepBackoff(ctx context.Context, attempt int) error {
	t := time.NewTimer(co.jit.backoff(co.cfg.Backoff, attempt-2, 6, 0))
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return simerr.New(simerr.KindDeadline, "dispatch: cancelled during backoff: %v", ctx.Err())
	case <-co.closeCh:
		return errClosed
	}
}

// attempt runs the cell once, on the slot granted to ticket t.
func (co *Coordinator) attempt(ctx context.Context, cell *Cell, t uint64) (*engine.Result, error) {
	s, err := co.acquire(ctx, t)
	if err != nil {
		return nil, err
	}
	res, err := co.runOnSlot(ctx, s, cell)
	if err != nil && ctx.Err() != nil {
		// The caller gave up mid-call: report that, not how the worker noticed.
		return nil, simerr.New(simerr.KindDeadline, "dispatch: %v", ctx.Err())
	}
	return res, err
}

// runOnSlot executes the cell on the slot's current worker and routes the
// slot through breaker/restart accounting back toward the idle list.
func (co *Coordinator) runOnSlot(ctx context.Context, s *slot, cell *Cell) (*engine.Result, error) {
	s.mu.Lock()
	w := s.w
	s.mu.Unlock()
	if w == nil {
		// Shouldn't happen (only live slots are ever idle), but
		// never wedge: route through the restart path.
		co.finish(s, true, true)
		return nil, transportErr("slot %s has no worker", s.id)
	}
	res, err := w.Execute(ctx, cell)
	kind := simerr.KindOf(err)
	transport := err != nil && kind == simerr.KindTransport
	if !transport {
		// Any answered call — success or a typed simulation failure — is a
		// healthy worker; the crash-loop streak resets.
		s.mu.Lock()
		s.restarts = 0
		s.mu.Unlock()
	}
	co.finish(s, transport, err != nil && kind.Transient())
	return res, err
}

// finish updates the slot's breaker and sends it down the recycle path.
// Never blocks the caller.
func (co *Coordinator) finish(s *slot, needRestart, transientFailure bool) {
	if transientFailure {
		if s.br.onFailure() {
			co.mBreakerTrips.Inc()
		}
	} else {
		s.br.onSuccess()
	}
	co.mBreakerState.With(s.id).Set(int64(s.br.current()))
	// Deliberately untracked: recycle goroutines are bounded by the pool
	// size and exit promptly on closeCh; tracking them in wg would race
	// Add against Close's Wait.
	go co.recycle(s, needRestart)
}

// recycle restarts the worker if its transport failed, serves the breaker
// cooldown if it is open, then requeues the slot.
func (co *Coordinator) recycle(s *slot, needRestart bool) {
	if needRestart {
		if !co.respawn(s) {
			return // dead or closing
		}
	}
	if s.br.current() == breakerOpen {
		t := time.NewTimer(co.cfg.BreakerCooldown)
		defer t.Stop()
		select {
		case <-t.C:
			s.br.halfOpen()
			co.mBreakerState.With(s.id).Set(int64(s.br.current()))
		case <-co.closeCh:
			return
		}
	}
	co.requeue(s)
}

// respawn replaces the slot's worker, burning crash-loop budget. Returns
// false when the slot is now dead or the coordinator is closing.
func (co *Coordinator) respawn(s *slot) bool {
	s.mu.Lock()
	old := s.w
	s.w = nil
	s.mu.Unlock()
	if old != nil {
		old.Kill()
		old.Close()
	}
	for {
		if co.closed.Load() {
			return false
		}
		s.mu.Lock()
		s.restarts++
		burned := s.restarts
		s.mu.Unlock()
		if burned > co.cfg.CrashLoopBudget {
			co.markDead(s)
			return false
		}
		co.mRestarts.Inc()
		w, err := co.cfg.Spawn(context.Background())
		if err == nil {
			s.mu.Lock()
			if co.closed.Load() {
				s.mu.Unlock()
				w.Kill()
				w.Close()
				return false
			}
			s.w = w
			s.mu.Unlock()
			return true
		}
		// Spawn itself failed: brief pause, then burn the next unit.
		t := time.NewTimer(co.cfg.Backoff)
		select {
		case <-t.C:
		case <-co.closeCh:
			t.Stop()
			return false
		}
	}
}

// markDead retires a slot permanently. When the last slot dies, allDead is
// closed and waiting acquires fail fast with ErrAllWorkersDead.
func (co *Coordinator) markDead(s *slot) {
	s.mu.Lock()
	s.dead = true
	s.mu.Unlock()
	left := co.alive.Add(-1)
	co.mAlive.Set(left)
	if left <= 0 {
		co.deadOnce.Do(func() { close(co.allDead) })
	}
}

// freshTicket asks acquire for a new ticket at the back of the order.
const freshTicket = math.MaxUint64

// acquire blocks until ticket t's turn comes and an idle, trusted slot is
// free. A used-up ticket (a retry, a single-flight duplicate taking over as
// leader) is replaced by a fresh one.
func (co *Coordinator) acquire(ctx context.Context, t uint64) (*slot, error) {
	ch := make(chan *slot, 1)
	co.gmu.Lock()
	if t < co.turn || t >= co.next || co.gone[t] {
		t = co.next
		co.next++
	}
	co.waiting[t] = ch
	co.grant()
	co.gmu.Unlock()
	var err error
	select {
	case s := <-ch:
		return s, nil
	case <-ctx.Done():
		err = &simerr.RunError{Kind: simerr.KindDeadline, Detail: ctx.Err().Error(), Err: ErrQueueTimeout}
	case <-co.allDead:
		err = ErrAllWorkersDead
	case <-co.closeCh:
		err = errClosed
	}
	co.gmu.Lock()
	if _, ok := co.waiting[t]; ok {
		delete(co.waiting, t)
		co.gone[t] = true
	} else {
		co.idle = append(co.idle, <-ch) // granted as we gave up: pass it on
	}
	co.grant()
	co.gmu.Unlock()
	return nil, err
}

// grant hands idle slots to waiting tickets in ticket order, skipping
// withdrawn ones. It stops at a ticket whose cell has not asked yet. The
// caller holds gmu.
func (co *Coordinator) grant() {
	for {
		if co.gone[co.turn] {
			delete(co.gone, co.turn)
			co.turn++
			continue
		}
		ch, ok := co.waiting[co.turn]
		if !ok || len(co.idle) == 0 {
			return
		}
		delete(co.waiting, co.turn)
		co.turn++
		ch <- co.idle[0]
		co.idle = co.idle[1:]
	}
}

// withdraw gives up ticket t if it is still unused, so the tickets behind it
// stop waiting for it.
func (co *Coordinator) withdraw(t uint64) {
	co.gmu.Lock()
	co.withdrawLocked(t)
	co.grant()
	co.gmu.Unlock()
}

func (co *Coordinator) withdrawLocked(t uint64) {
	if _, waiting := co.waiting[t]; t >= co.turn && t < co.next && !waiting {
		co.gone[t] = true
	}
}

// TryHold reserves an idle worker slot without waiting, for work that runs
// outside the coordinator but must count against its capacity (a fuzz
// campaign). ok is false when every slot is busy or an admitted cell is
// still due a slot: holding never jumps the queue. release hands the slot
// back; calling it more than once is harmless.
func (co *Coordinator) TryHold() (release func(), ok bool) {
	co.gmu.Lock()
	if co.turn != co.next || len(co.idle) == 0 {
		co.gmu.Unlock()
		return nil, false
	}
	s := co.idle[0]
	co.idle = co.idle[1:]
	co.gmu.Unlock()
	var once sync.Once
	return func() { once.Do(func() { co.requeue(s) }) }, true
}

// requeue returns a slot to the idle list and grants it on if a ticket is
// waiting.
func (co *Coordinator) requeue(s *slot) {
	co.gmu.Lock()
	defer co.gmu.Unlock()
	if co.closed.Load() {
		return
	}
	co.idle = append(co.idle, s)
	co.grant()
}

// ---- introspection ----

// SlotStats is one worker slot's current disposition.
type SlotStats struct {
	ID      string `json:"id"`
	Breaker string `json:"breaker"` // closed | open | half-open
	// Peer is the remote address the slot's worker is connected to (empty
	// for local workers or a slot between workers).
	Peer string `json:"peer,omitempty"`
	Dead bool   `json:"dead,omitempty"`
}

// Stats is a point-in-time snapshot of the coordinator.
type Stats struct {
	WorkersAlive int64       `json:"workers_alive"`
	Pending      int64       `json:"pending"`
	Retries      uint64      `json:"retries"`
	Shed         uint64      `json:"shed"`
	Restarts     uint64      `json:"worker_restarts"`
	BreakerTrips uint64      `json:"breaker_trips"`
	DedupHits    uint64      `json:"dedup_hits"`
	Cache        lru.Stats   `json:"cache"`
	Slots        []SlotStats `json:"slots,omitempty"`
}

// Snapshot reports the coordinator's counters and per-slot state.
func (co *Coordinator) Snapshot() Stats {
	st := Stats{
		WorkersAlive: co.alive.Load(),
		Pending:      co.pending.Load(),
		Retries:      co.mRetries.Value(),
		Shed:         co.mShed.Value(),
		Restarts:     co.mRestarts.Value(),
		BreakerTrips: co.mBreakerTrips.Value(),
		DedupHits:    co.mDedupHits.Value(),
		Cache:        co.cache.Stats(),
	}
	for _, s := range co.slots {
		s.mu.Lock()
		w := s.w
		dead := s.dead
		s.mu.Unlock()
		ss := SlotStats{ID: s.id, Breaker: s.br.current().String(), Dead: dead}
		if ww, ok := w.(*wireWorker); ok && ww.p != nil {
			ss.Peer = ww.p.addr
		}
		st.Slots = append(st.Slots, ss)
	}
	return st
}
