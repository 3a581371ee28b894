// Package dispatch is the fault-tolerant batch execution tier: a
// coordinator sharding simulation cells across a pool of workers, with
// per-cell retries, hedging, per-worker circuit breakers, crash-loop-bounded
// automatic restarts, admission control, and a content-addressed shared
// result cache.
//
// The design leans on one property end to end: the simulator is a
// deterministic pure function of (program, policy, config). That makes
// every failure safely retryable — a cell whose result never arrived can be
// replayed on any worker with no risk of double effects — and every repeat
// cacheable under engine.CacheKey. The failure taxonomy in internal/simerr
// does the rest of the work: transient kinds (transport, deadline, panic,
// shed) drive retries and breakers; permanent kinds (build, divergence,
// limits) are the cell's own fault, charged to the cell and never to the
// worker that faithfully reported them.
//
// Worker ownership is a token-in-channel discipline: each worker slot's
// token lives in the ready channel exactly when the slot is idle and
// trusted. Acquire is a channel receive; completion routes the token
// through breaker/restart logic back to the channel. This gives
// single-in-flight per worker (the stdio protocol requires it) without a
// lock-ordering problem in sight.
package dispatch

import (
	"context"
	"errors"
	"fmt"
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
// workers, modest pool, retries and breakers on, hedging off.
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
	// HedgeAfter launches a second attempt of a still-running cell on an
	// idle worker after this delay; first result wins. 0 disables hedging.
	HedgeAfter time.Duration

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

	// ProbeInterval pings idle workers this often, restarting any that
	// fail. 0 disables probing.
	ProbeInterval time.Duration

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
type Coordinator struct {
	cfg   Config
	slots []*slot
	ready chan *slot
	cache *resultCache

	fmu     sync.Mutex
	flights map[string]*flight

	pending  atomic.Int64
	alive    atomic.Int64
	allDead  chan struct{}
	deadOnce sync.Once

	closed  atomic.Bool
	closeCh chan struct{}
	wg      sync.WaitGroup

	jmu sync.Mutex
	jit *rand.Rand

	mCells        *obs.CounterVec // outcome: ok | cached | failure kind
	mRetries      *obs.Counter
	mHedges       *obs.Counter
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
		ready:   make(chan *slot, c.Workers),
		cache:   newResultCache(c.CacheEntries),
		flights: make(map[string]*flight),
		allDead: make(chan struct{}),
		closeCh: make(chan struct{}),
		jit:     rand.New(rand.NewSource(1)),
	}
	r := c.Registry
	co.mCells = r.CounterVec("dispatch_cells_total", "Batch cells by final outcome.", "outcome")
	co.mRetries = r.Counter("dispatch_retries_total", "Cell attempts beyond the first.")
	co.mHedges = r.Counter("dispatch_hedges_total", "Hedged duplicate attempts launched.")
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
			co.ready <- s
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
		select {
		case s := <-co.ready:
			co.ready <- s
		case <-time.After(helloTimeout):
			co.Close()
			return nil, fmt.Errorf("dispatch: no worker could be started")
		case <-co.allDead:
			co.Close()
			return nil, ErrAllWorkersDead
		}
	}
	if c.ProbeInterval > 0 {
		co.wg.Add(1)
		go co.probeLoop()
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

// Admit reserves n cells of queue capacity, shedding with a *ShedError when
// the queue is full. Callers must Release what they Admit.
func (co *Coordinator) Admit(n int) error {
	if co.closed.Load() {
		return errClosed
	}
	cap := int64(co.cfg.QueueDepth)
	if cap < 0 {
		co.mQueueDepth.Set(co.pending.Add(int64(n)))
		return nil
	}
	for {
		cur := co.pending.Load()
		if cur+int64(n) > cap {
			co.mShed.Add(uint64(n))
			return &ShedError{
				Pending:  cur,
				Capacity: cap,
				cause:    simerr.New(simerr.KindShed, "%d pending of %d capacity", cur, cap),
			}
		}
		if co.pending.CompareAndSwap(cur, cur+int64(n)) {
			co.mQueueDepth.Set(cur + int64(n))
			return nil
		}
	}
}

// Release returns n units of admitted capacity.
func (co *Coordinator) Release(n int) {
	co.mQueueDepth.Set(co.pending.Add(-int64(n)))
}

// Pending reports the admitted-but-unfinished cell count (for the 503
// envelope and Retry-After estimation).
func (co *Coordinator) Pending() int64 { return co.pending.Load() }

// QueueDepth reports the admission capacity (negative = unlimited).
func (co *Coordinator) QueueDepth() int { return co.cfg.QueueDepth }

// ---- execution ----

// Execute runs one cell through admission, cache, and the retry loop.
func (co *Coordinator) Execute(ctx context.Context, cell *Cell) (*engine.Result, error) {
	if err := co.Admit(1); err != nil {
		return nil, err
	}
	defer co.Release(1)
	return co.ExecuteAdmitted(ctx, cell)
}

// ExecuteAdmitted runs one cell whose capacity was already reserved via
// Admit — the batch path admits the whole batch up front so a batch can
// never shed its own cells halfway through.
func (co *Coordinator) ExecuteAdmitted(ctx context.Context, cell *Cell) (*engine.Result, error) {
	res, err := co.run(ctx, cell)
	switch {
	case err == nil && res.Cached:
		co.mCells.With("cached").Inc()
	case err == nil:
		co.mCells.With("ok").Inc()
	default:
		co.mCells.With(simerr.KindOf(err).String()).Inc()
	}
	return res, err
}

// run is the cache + single-flight front of the retry loop. Identical cells
// — same content-addressed key — in flight at the same moment execute once:
// the first caller becomes the leader and runs the cell, duplicates wait on
// its flight and share the outcome. Dedup sits *before* the shared result
// cache, so a batch of repeats costs one simulation, not one per repeat that
// raced past a still-empty cache entry.
func (co *Coordinator) run(ctx context.Context, cell *Cell) (*engine.Result, error) {
	if err := cell.Overrides.Normalize(); err != nil {
		return nil, err // permanent: bad cell, no attempt consumed
	}
	key, cacheable := resultKey(ctx, cell)
	if !cacheable {
		return co.runAttempts(ctx, cell)
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

		res, err := co.runAttempts(ctx, cell)
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
func (co *Coordinator) runAttempts(ctx context.Context, cell *Cell) (*engine.Result, error) {
	var lastErr error
	for attempt := 1; attempt <= co.cfg.MaxAttempts; attempt++ {
		if attempt > 1 {
			co.mRetries.Inc()
			if err := co.sleepBackoff(ctx, attempt); err != nil {
				return nil, err
			}
		}
		res, err := co.attempt(ctx, cell)
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
// cache all coalesce on. A disabled cache still gets a key: dedup works
// either way. The time spent is recorded as the engine.cachekey span.
func resultKey(ctx context.Context, cell *Cell) (string, bool) {
	if cell.Program == nil {
		return "", false
	}
	req := cell.engineRequest()
	return engine.CacheKeyObserved(ctx, cell.Program, cell.Overrides.Policy, req.BuildConfig(), cell.UseRef, cell.Verify)
}

// sleepBackoff waits the exponential-with-jitter delay before attempt n.
func (co *Coordinator) sleepBackoff(ctx context.Context, attempt int) error {
	shift := attempt - 2 // first retry waits ~Backoff
	if shift > 6 {
		shift = 6
	}
	base := co.cfg.Backoff << shift
	co.jmu.Lock()
	jitter := time.Duration(co.jit.Int63n(int64(base))) - base/2
	co.jmu.Unlock()
	t := time.NewTimer(base + jitter)
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

// attempt runs the cell once, with an optional hedge: if the primary is
// still running after HedgeAfter and an idle worker exists, a duplicate
// launches and the first completion wins. The loser runs to completion on
// its own worker (cancelling a stdio call would poison the worker — worse
// than finishing a deterministic simulation) and its result is discarded.
func (co *Coordinator) attempt(ctx context.Context, cell *Cell) (*engine.Result, error) {
	s, err := co.acquire(ctx)
	if err != nil {
		return nil, err
	}
	type outcome struct {
		res *engine.Result
		err error
	}
	out := make(chan outcome, 2)
	runOn := func(s *slot) {
		res, err := co.runOnSlot(ctx, s, cell)
		out <- outcome{res, err}
	}
	go runOn(s)

	outstanding := 1
	var hedgeC <-chan time.Time
	if co.cfg.HedgeAfter > 0 {
		t := time.NewTimer(co.cfg.HedgeAfter)
		defer t.Stop()
		hedgeC = t.C
	}
	var lastErr error
	for outstanding > 0 {
		select {
		case o := <-out:
			outstanding--
			if o.err == nil {
				return o.res, nil
			}
			lastErr = o.err
		case <-hedgeC:
			hedgeC = nil
			if h, ok := co.tryAcquire(); ok {
				co.mHedges.Inc()
				outstanding++
				go runOn(h)
			}
		case <-ctx.Done():
			// Outstanding attempts clean their own slots up via runOnSlot.
			return nil, simerr.New(simerr.KindDeadline, "dispatch: %v", ctx.Err())
		}
	}
	return nil, lastErr
}

// runOnSlot executes the cell on the slot's current worker and routes the
// slot through breaker/restart accounting back toward the ready queue.
func (co *Coordinator) runOnSlot(ctx context.Context, s *slot, cell *Cell) (*engine.Result, error) {
	s.mu.Lock()
	w := s.w
	s.mu.Unlock()
	if w == nil {
		// Shouldn't happen (only live slots are in the ready queue), but
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

// acquire blocks until an idle, trusted worker slot is available.
func (co *Coordinator) acquire(ctx context.Context) (*slot, error) {
	select {
	case s := <-co.ready:
		return s, nil
	default:
	}
	select {
	case s := <-co.ready:
		return s, nil
	case <-ctx.Done():
		return nil, &simerr.RunError{Kind: simerr.KindDeadline, Detail: ctx.Err().Error(), Err: ErrQueueTimeout}
	case <-co.allDead:
		return nil, ErrAllWorkersDead
	case <-co.closeCh:
		return nil, errClosed
	}
}

// tryAcquire grabs an idle slot without waiting (hedges and probes must
// never steal capacity from primary attempts that are blocked waiting).
func (co *Coordinator) tryAcquire() (*slot, bool) {
	select {
	case s := <-co.ready:
		return s, true
	default:
		return nil, false
	}
}

// TryHold reserves an idle worker slot without waiting, for work that runs
// outside the coordinator but must count against its capacity (a fuzz
// campaign). ok is false when every slot is busy. release hands the slot
// back; calling it more than once is harmless.
func (co *Coordinator) TryHold() (release func(), ok bool) {
	s, ok := co.tryAcquire()
	if !ok {
		return nil, false
	}
	var once sync.Once
	return func() { once.Do(func() { co.requeue(s) }) }, true
}

// requeue returns a slot token to the ready queue (capacity = pool size, so
// this never blocks).
func (co *Coordinator) requeue(s *slot) {
	if co.closed.Load() {
		return
	}
	co.ready <- s
}

// ---- health probing ----

// probeLoop periodically pings idle workers; a failed ping sends the slot
// through the normal transport-failure restart path before any cell is
// wasted on it.
func (co *Coordinator) probeLoop() {
	defer co.wg.Done()
	t := time.NewTicker(co.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-co.closeCh:
			return
		case <-t.C:
		}
		// Probe every currently-idle slot, at most one pass per tick.
		probed := make([]*slot, 0, len(co.slots))
		for {
			s, ok := co.tryAcquire()
			if !ok {
				break
			}
			probed = append(probed, s)
		}
		for _, s := range probed {
			s.mu.Lock()
			w := s.w
			s.mu.Unlock()
			if w == nil {
				co.finish(s, true, true)
				continue
			}
			pctx, cancel := context.WithTimeout(context.Background(), co.cfg.ProbeInterval)
			err := w.Ping(pctx)
			cancel()
			co.finish(s, err != nil, err != nil)
		}
	}
}

// ---- introspection ----

// Addressable is implemented by workers bound to a remote peer address
// (remoteWorker); Snapshot uses it to label slots with the host they are
// currently connected to.
type Addressable interface {
	Addr() string
}

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
	Hedges       uint64      `json:"hedges"`
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
		Hedges:       co.mHedges.Value(),
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
		if a, ok := w.(Addressable); ok {
			ss.Peer = a.Addr()
		}
		st.Slots = append(st.Slots, ss)
	}
	return st
}
