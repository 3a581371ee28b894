package dispatch

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"levioso/internal/engine"
	"levioso/internal/obs"
	"levioso/internal/simerr"
)

// startWorkerDaemon runs ListenWorkers on an ephemeral loopback port and
// returns its address. Cleanup drains it.
func startWorkerDaemon(t *testing.T, opts ListenOptions) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		ListenWorkers(ctx, ln, opts)
	}()
	t.Cleanup(func() {
		cancel()
		select {
		case <-done:
		case <-time.After(15 * time.Second):
			t.Error("worker daemon did not drain")
		}
	})
	return ln.Addr().String()
}

// testFleet builds a remote fleet over the addresses with test-speed tuning.
func testFleet(t *testing.T, cfg RemoteConfig, addrs ...string) *RemoteFleet {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	if cfg.DialTimeout == 0 {
		cfg.DialTimeout = 2 * time.Second
	}
	if cfg.RedialBackoff == 0 {
		cfg.RedialBackoff = 2 * time.Millisecond
	}
	f, err := NewRemote(cfg, addrs...)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestRemoteMatchesEngine: a cell dispatched over real loopback TCP is
// bit-identical to a direct engine.Run.
func TestRemoteMatchesEngine(t *testing.T) {
	addr := startWorkerDaemon(t, ListenOptions{HeartbeatInterval: 25 * time.Millisecond})
	prog := testProgram(t)
	want := wantResult(t, prog, "levioso")

	reg := obs.NewRegistry()
	fleet := testFleet(t, RemoteConfig{Registry: reg}, addr)
	co := testCoordinator(t, Config{Workers: 2, Spawn: fleet.Spawner(), CacheEntries: -1, Registry: reg})
	got, err := co.Execute(context.Background(), &Cell{
		Name: "cell.lc", Program: prog, Verify: true,
		Overrides: engine.Overrides{Policy: "levioso"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sameResult(got, want) {
		t.Fatalf("remote result differs:\n got=%+v\nwant=%+v", got, want)
	}

	// The slot view names the peer it is connected to.
	var peers int
	for _, s := range co.Snapshot().Slots {
		if s.Peer == addr {
			peers++
		}
	}
	if peers == 0 {
		t.Fatalf("no slot reports peer %s: %+v", addr, co.Snapshot().Slots)
	}
}

// TestRemoteWorkerCacheAdvertised: with the coordinator's cache disabled, a
// repeat cell is served by the worker daemon's shared cache and the hit is
// advertised back to the coordinator.
func TestRemoteWorkerCacheAdvertised(t *testing.T) {
	addr := startWorkerDaemon(t, ListenOptions{HeartbeatInterval: 25 * time.Millisecond})
	prog := testProgram(t)

	reg := obs.NewRegistry()
	fleet := testFleet(t, RemoteConfig{Registry: reg}, addr)
	co := testCoordinator(t, Config{Workers: 1, Spawn: fleet.Spawner(), CacheEntries: -1, Registry: reg})
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
		t.Fatal("repeat cell not served from the worker daemon cache")
	}
	if !sameResult(first, second) {
		t.Fatalf("cached result differs:\n got=%+v\nwant=%+v", second, first)
	}
	ps := fleet.Peers()
	if len(ps) != 1 || ps[0].CacheHits < 1 {
		t.Fatalf("peer stats do not show the advertised cache hit: %+v", ps)
	}
}

// silentServer handshakes correctly — advertising a fast heartbeat — and
// then never sends another byte: the silent-partition scenario only the
// heartbeat watchdog can detect.
func silentServer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				json.NewEncoder(c).Encode(wireHello{Hello: &wireHelloBody{
					SchemaVersion: WireSchemaVersion, PID: 1, HBMillis: 10,
				}})
				// Keep the socket open but mute; close only when the peer does.
				buf := make([]byte, 1<<10)
				for {
					if _, err := c.Read(buf); err != nil {
						c.Close()
						return
					}
				}
			}(conn)
		}
	}()
	return ln.Addr().String()
}

// TestRemotePartitionDetection: a peer that goes silent mid-call trips the
// heartbeat watchdog with a typed transport error instead of hanging until
// the caller's context dies.
func TestRemotePartitionDetection(t *testing.T) {
	addr := silentServer(t)
	fleet := testFleet(t, RemoteConfig{HeartbeatTimeout: 150 * time.Millisecond}, addr)
	w, err := fleet.spawn(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	prog := testProgram(t)
	start := time.Now()
	_, err = w.Execute(context.Background(), &Cell{
		Name: "cell.lc", Program: prog, Overrides: engine.Overrides{Policy: "fence"},
	})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("execute on a partitioned peer succeeded")
	}
	if simerr.KindOf(err) != simerr.KindTransport || !simerr.Transient(err) {
		t.Fatalf("partition error is %v (kind %v), want transient transport", err, simerr.KindOf(err))
	}
	if !strings.Contains(err.Error(), "partition") {
		t.Fatalf("error does not name the partition: %v", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("partition detection took %v, want ~150ms", elapsed)
	}
	if ps := fleet.Peers(); ps[0].Partitions < 1 {
		t.Fatalf("peer stats do not count the partition: %+v", ps)
	}
}

// rawServer accepts connections and hands each to fn.
func rawServer(t *testing.T, fn func(net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go fn(conn)
		}
	}()
	return ln.Addr().String()
}

// TestRemoteHelloVersionMismatch: a daemon speaking a different wire schema
// is refused at handshake with a typed transport error, and a coordinator
// pointed only at such daemons fails fast with ErrAllWorkersDead instead of
// hanging the batch.
func TestRemoteHelloVersionMismatch(t *testing.T) {
	addr := rawServer(t, func(c net.Conn) {
		json.NewEncoder(c).Encode(wireHello{Hello: &wireHelloBody{SchemaVersion: 99, PID: 1}})
		// Linger until the coordinator hangs up; never close first, so the
		// refusal is provably the version check, not a read error.
		buf := make([]byte, 1)
		c.Read(buf)
		c.Close()
	})
	fleet := testFleet(t, RemoteConfig{}, addr)
	if _, err := fleet.spawn(context.Background()); err == nil {
		t.Fatal("spawn against a mismatched daemon succeeded")
	} else if simerr.KindOf(err) != simerr.KindTransport {
		t.Fatalf("mismatch error kind = %v, want transport: %v", simerr.KindOf(err), err)
	}

	reg := obs.NewRegistry()
	fleet2 := testFleet(t, RemoteConfig{Registry: reg}, addr)
	start := time.Now()
	co, err := New(context.Background(), Config{
		Workers: 2, Spawn: fleet2.Spawner(), CrashLoopBudget: 2,
		Backoff: 2 * time.Millisecond, Registry: reg,
	})
	if err == nil {
		co.Close()
		t.Fatal("coordinator started against version-mismatched daemons")
	}
	if !errors.Is(err, ErrAllWorkersDead) {
		t.Fatalf("coordinator error = %v, want ErrAllWorkersDead", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("fail-fast took %v", elapsed)
	}
}

// TestRemoteOversizedFrame: a daemon answering with a >64MiB frame produces
// a typed transport error and trips the slot's breaker — never a hang.
func TestRemoteOversizedFrame(t *testing.T) {
	var wrote sync.WaitGroup
	addr := rawServer(t, func(c net.Conn) {
		defer c.Close()
		json.NewEncoder(c).Encode(wireHello{Hello: &wireHelloBody{SchemaVersion: WireSchemaVersion, PID: 1}})
		sc := bufio.NewScanner(c)
		sc.Buffer(make([]byte, 0, 64<<10), maxFrameBytes)
		if !sc.Scan() {
			return
		}
		// One giant line, no newline needed: the client's scanner hits its
		// 64MiB cap first. Chunked so a mid-write hangup just stops us.
		wrote.Add(1)
		defer wrote.Done()
		chunk := make([]byte, 1<<20)
		for i := range chunk {
			chunk[i] = 'a'
		}
		for i := 0; i < 65; i++ {
			if _, err := c.Write(chunk); err != nil {
				return
			}
		}
	})
	reg := obs.NewRegistry()
	fleet := testFleet(t, RemoteConfig{Registry: reg}, addr)
	co := testCoordinator(t, Config{
		Workers: 1, Spawn: fleet.Spawner(), MaxAttempts: 2, BreakerThreshold: 1,
		Backoff: 2 * time.Millisecond, CrashLoopBudget: 50, CacheEntries: -1, Registry: reg,
	})
	prog := testProgram(t)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	_, err := co.Execute(ctx, &Cell{
		Name: "cell.lc", Program: prog, Overrides: engine.Overrides{Policy: "fence"},
	})
	if err == nil {
		t.Fatal("oversized frame produced a result")
	}
	if simerr.KindOf(err) != simerr.KindTransport {
		t.Fatalf("oversized-frame error kind = %v, want transport: %v", simerr.KindOf(err), err)
	}
	if trips := co.Snapshot().BreakerTrips; trips < 1 {
		t.Fatalf("breaker never tripped: %+v", co.Snapshot())
	}
	wrote.Wait() // server writers done: no goroutine left mid-blast
}

// gatedWorker blocks Execute until released — the probe that proves
// duplicate in-flight cells coalesce instead of each taking a worker.
type gatedWorker struct {
	execs     *atomic.Int64
	started   chan struct{}
	startOnce *sync.Once
	release   chan struct{}
}

func (w *gatedWorker) Execute(ctx context.Context, c *Cell) (*engine.Result, error) {
	w.execs.Add(1)
	w.startOnce.Do(func() { close(w.started) })
	select {
	case <-w.release:
	case <-ctx.Done():
		return nil, transportErr("gated: %v", ctx.Err())
	}
	return engine.Run(ctx, engine.Request{
		Name: c.Name, Program: c.Program, Verify: c.Verify, Overrides: c.Overrides,
	})
}

func (w *gatedWorker) Kill()        {}
func (w *gatedWorker) Close() error { return nil }

// TestSingleFlightDedup: identical cells submitted while the first is still
// executing wait for its flight and share the result — one simulation, not
// four — with the dedup hits counted.
func TestSingleFlightDedup(t *testing.T) {
	var execs atomic.Int64
	gw := &gatedWorker{
		execs: &execs, started: make(chan struct{}),
		startOnce: &sync.Once{}, release: make(chan struct{}),
	}
	sp := func(ctx context.Context) (Worker, error) { return gw, nil }
	co := testCoordinator(t, Config{Workers: 2, Spawn: sp})

	prog := testProgram(t)
	cell := func() *Cell {
		return &Cell{Name: "cell.lc", Program: prog, Overrides: engine.Overrides{Policy: "fence"}}
	}
	type outcome struct {
		res *engine.Result
		err error
	}
	results := make(chan outcome, 4)
	run := func() {
		res, err := co.Execute(context.Background(), cell())
		results <- outcome{res, err}
	}
	go run()
	<-gw.started
	for i := 0; i < 3; i++ {
		go run()
	}
	// Let the duplicates reach the flight wait before the leader finishes.
	time.Sleep(200 * time.Millisecond)
	close(gw.release)

	var cached int
	for i := 0; i < 4; i++ {
		o := <-results
		if o.err != nil {
			t.Fatal(o.err)
		}
		if o.res.Cached {
			cached++
		}
	}
	if got := execs.Load(); got != 1 {
		t.Fatalf("duplicate cells executed %d times, want 1", got)
	}
	if st := co.Snapshot(); st.DedupHits != 3 {
		t.Fatalf("dedup hits = %d (cached results seen: %d), want 3", st.DedupHits, cached)
	}
}

// TestSingleFlightWaiterSurvivesLeaderTransientFailure: when the leader's
// attempt dies transiently, waiting duplicates do not inherit the failure —
// they take their own turn.
func TestSingleFlightWaiterSurvivesLeaderTransientFailure(t *testing.T) {
	var execs atomic.Int64
	flaky := flakyOnce{started: make(chan struct{}), release: make(chan struct{})}
	sp := func(ctx context.Context) (Worker, error) {
		return &flakyOnceWorker{execs: &execs, f: &flaky}, nil
	}
	co := testCoordinator(t, Config{Workers: 1, Spawn: sp, MaxAttempts: 1, Backoff: time.Millisecond})

	prog := testProgram(t)
	cell := func() *Cell {
		return &Cell{Name: "cell.lc", Program: prog, Overrides: engine.Overrides{Policy: "fence"}}
	}
	// Leader fails its single attempt (MaxAttempts 1 makes the flight fail
	// transiently); the waiter must retry on its own and succeed.
	flaky.armed.Store(true)
	type outcome struct {
		res *engine.Result
		err error
	}
	results := make(chan outcome, 2)
	go func() {
		res, err := co.Execute(context.Background(), cell())
		results <- outcome{res, err}
	}()
	<-flaky.started
	go func() {
		res, err := co.Execute(context.Background(), cell())
		results <- outcome{res, err}
	}()
	time.Sleep(100 * time.Millisecond)
	close(flaky.release)

	var oks, fails int
	for i := 0; i < 2; i++ {
		o := <-results
		if o.err != nil {
			if !simerr.Transient(o.err) {
				t.Fatalf("leader failure not transient: %v", o.err)
			}
			fails++
			continue
		}
		oks++
	}
	if oks < 1 {
		t.Fatalf("no caller succeeded (oks=%d fails=%d): the waiter inherited the leader's transient failure", oks, fails)
	}
}

// flakyOnce coordinates one injected transient failure.
type flakyOnce struct {
	armed     atomic.Bool
	started   chan struct{}
	startOnce sync.Once
	release   chan struct{}
}

type flakyOnceWorker struct {
	execs *atomic.Int64
	f     *flakyOnce
}

func (w *flakyOnceWorker) Execute(ctx context.Context, c *Cell) (*engine.Result, error) {
	w.execs.Add(1)
	if w.f.armed.CompareAndSwap(true, false) {
		w.f.startOnce.Do(func() { close(w.f.started) })
		select {
		case <-w.f.release:
		case <-ctx.Done():
		}
		return nil, transportErr("injected flake")
	}
	return engine.Run(ctx, engine.Request{
		Name: c.Name, Program: c.Program, Verify: c.Verify, Overrides: c.Overrides,
	})
}

func (w *flakyOnceWorker) Kill()        {}
func (w *flakyOnceWorker) Close() error { return nil }

// TestHelloV1Refused: a worker still speaking wire schema 1 — which would
// ignore a cell's "ref" flag and answer with a core simulation — is refused
// at the hello with a typed transport error, over stdio and over TCP alike.
func TestHelloV1Refused(t *testing.T) {
	v1 := wireHello{Hello: &wireHelloBody{SchemaVersion: 1, PID: 1}}
	t.Run("stdio", func(t *testing.T) {
		inR, inW := io.Pipe()
		outR, outW := io.Pipe()
		h := &pipeHandle{cancel: func() {}, inR: inR, outW: outW, done: make(chan struct{})}
		go func() {
			defer close(h.done)
			json.NewEncoder(outW).Encode(v1)
			io.Copy(io.Discard, inR) // until the refusal closes the pipe
		}()
		_, err := newWireWorker(context.Background(), h, inW, outR)
		if simerr.KindOf(err) != simerr.KindTransport {
			t.Fatalf("v1 stdio worker: err = %v, want a transport refusal", err)
		}
	})
	t.Run("tcp", func(t *testing.T) {
		addr := rawServer(t, func(c net.Conn) {
			json.NewEncoder(c).Encode(v1)
			c.Read(make([]byte, 1)) // linger until the coordinator hangs up
			c.Close()
		})
		_, err := testFleet(t, RemoteConfig{}, addr).spawn(context.Background())
		if simerr.KindOf(err) != simerr.KindTransport {
			t.Fatalf("v1 daemon: err = %v, want a transport refusal", err)
		}
	})
}
