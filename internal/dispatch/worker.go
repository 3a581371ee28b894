package dispatch

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"os/exec"
	"sync"
	"sync/atomic"
	"time"

	"levioso/internal/cpu"
	"levioso/internal/engine"
	"levioso/internal/isa"
	"levioso/internal/simerr"
)

// helloTimeout bounds how long a freshly spawned worker may take to produce
// its handshake frame before the coordinator declares the spawn failed.
const helloTimeout = 10 * time.Second

// Cell is one unit of batch work: a program plus the option surface that
// selects its simulation. Cells are immutable once handed to the
// coordinator.
type Cell struct {
	// Name labels the cell in results, errors, and metrics.
	Name string
	// Program is the built program to simulate (immutable during runs).
	// It may be nil when Image is set: the worker loads the image.
	Program *isa.Program
	// Image, when non-nil, is the LEV64 image Program was loaded from (a
	// binary request input, a wire frame). The result key hashes it and the
	// wire ships it as it is, so the program is never re-encoded. When nil,
	// the key hashes Program's encoding and a wire frame marshals Program;
	// nothing keeps a copy of the image.
	Image []byte
	// Overrides selects policy, ROB size, cycle limit, and deadline.
	Overrides engine.Overrides
	// Verify cross-checks the run against the reference model.
	Verify bool
	// UseRef runs the program on the functional reference model instead of
	// the out-of-order core (no policy, no Stats).
	UseRef bool
	// Config, when non-nil, is the core the cell runs on (nil means the
	// default core); the Overrides apply on top. The wire carries no core
	// configuration, so wire workers reject such a cell as a permanent build
	// error: only in-process workers run it.
	Config *cpu.Config
}

// request renders the cell as one wire frame. The frame carries Image when
// the cell has one, and otherwise Program marshaled for this frame.
func (c *Cell) request() (wireRequest, error) {
	if c.Config != nil {
		return wireRequest{}, simerr.New(simerr.KindBuild,
			"dispatch: cell %q sets a core configuration, which the wire cannot carry", c.Name)
	}
	img := c.Image
	if img == nil {
		if c.Program == nil {
			return wireRequest{}, simerr.New(simerr.KindBuild, "dispatch: cell %q has no program", c.Name)
		}
		var err error
		if img, err = c.Program.MarshalBinary(); err != nil {
			return wireRequest{}, err
		}
	}
	return wireRequest{
		Name:       c.Name,
		Binary:     img,
		Policy:     c.Overrides.Policy,
		ROB:        c.Overrides.ROBSize,
		MaxCycles:  c.Overrides.MaxCycles,
		DeadlineMS: int64(c.Overrides.Deadline / time.Millisecond),
		Verify:     c.Verify,
		Ref:        c.UseRef,
	}, nil
}

// engineRequest is the engine pipeline request the cell stands for — what
// every worker finally runs, and what resultKey keys. A cell without a
// Program hands the engine its Image to load.
func (c *Cell) engineRequest() engine.Request {
	req := engine.Request{
		Name:      c.Name,
		Program:   c.Program,
		Verify:    c.Verify,
		UseRef:    c.UseRef,
		Overrides: c.Overrides,
		Config:    c.Config,
	}
	if c.Program == nil {
		req.Binary = c.Image
	}
	return req
}

// Worker is one execution slot: a thing that can run one cell at a time.
// The coordinator owns the single-in-flight discipline; a Worker may assume
// Execute is never called concurrently on the same instance.
//
// Execute returns typed errors: simulation failures keep their simerr kind
// across the transport, and anything where the result simply never arrived
// (dead process, corrupt frame, abandoned call) is simerr.KindTransport —
// always transient, because the simulator is a deterministic pure function
// and the cell can be replayed on any other worker.
type Worker interface {
	Execute(ctx context.Context, c *Cell) (*engine.Result, error)
	// Kill tears the worker down immediately (idempotent). Any in-flight
	// call fails with a transport error.
	Kill()
	// Close shuts the worker down cleanly and releases its resources.
	Close() error
}

// Spawner creates a fresh worker. The coordinator calls it at startup and
// again whenever it restarts a crashed worker.
type Spawner func(ctx context.Context) (Worker, error)

// ---- in-process worker ----

// inprocWorker runs cells directly through engine.Run in this process: zero
// transport overhead, native context cancellation. It is the default when
// no worker command is configured — the coordinator's retry/breaker
// machinery still applies, it just has far fewer ways to fail.
type inprocWorker struct{ killed atomic.Bool }

// Inproc returns a Spawner for in-process workers.
func Inproc() Spawner {
	return func(ctx context.Context) (Worker, error) { return &inprocWorker{}, nil }
}

func (w *inprocWorker) Execute(ctx context.Context, c *Cell) (*engine.Result, error) {
	if w.killed.Load() {
		return nil, transportErr("worker killed")
	}
	// A cell with neither Program nor Image fails in engine.Run as a typed
	// build error, like on the wire.
	return engine.Run(ctx, c.engineRequest())
}

func (w *inprocWorker) Kill()        { w.killed.Store(true) }
func (w *inprocWorker) Close() error { w.Kill(); return nil }

// ---- wire-protocol worker client ----

// farEnd is whatever serves the far side of a wire worker's stream: a
// subprocess, a ServeWorker goroutine, or a worker daemon's TCP connection.
type farEnd interface {
	// kill tears the far end down; it must unblock any reader/writer on the
	// stream. A worker calls it at most once.
	kill()
	// wait blocks until the far end has exited; a daemon's connection has
	// no exit to wait for.
	wait() error
}

// wireWorker is the coordinator-side client for one worker speaking the
// NDJSON protocol over a byte stream: a subprocess's stdin/stdout, in-memory
// pipes, or a TCP connection to a worker daemon. Calls are strictly
// sequential (the coordinator's slot ownership guarantees it). Any failed
// call poisons the worker and tears its stream down — an abandoned call
// (context cancelled while a frame is in flight), a dead stream, a corrupt
// frame, a reply to another frame — because the protocol has no cancel frame
// and the stream position is now unknown. The coordinator responds by
// respawning it.
//
// The reader skips heartbeat frames, and a far end that advertises
// heartbeats (a worker daemon) gets a partition watchdog: a call fails when
// nothing, heartbeat or reply, arrives for the heartbeat timeout, so a
// silently dropped peer fails the call instead of hanging the batch until
// ctx expiry.
type wireWorker struct {
	end  farEnd
	in   io.WriteCloser
	enc  *json.Encoder
	sc   *bufio.Scanner
	name string // the far end in errors: "worker", or the peer address

	// f and p are the fleet and peer of a TCP stream (nil for local
	// streams): calls move the peer's counters, and Snapshot labels the
	// slot with its address.
	f *RemoteFleet
	p *peer

	hbTimeout time.Duration // 0: no partition watchdog
	lastHeard atomic.Int64  // unix nanos of this stream's latest frame (the watchdog's clock)

	nextID   atomic.Uint64
	poisoned atomic.Bool
	killOnce sync.Once

	mu sync.Mutex // serializes call; belt over the coordinator's suspenders
}

// newWireWorker performs the hello handshake over in/out and returns a ready
// worker. The handshake read runs in a goroutine bounded by helloTimeout and
// ctx: a TCP stream may be wrapped by a fault injector whose reads ignore
// socket deadlines, so the timer, not a read deadline, is the backstop. On
// failure it only closes in, and the caller tears the far end down: a TCP
// stream that never said hello never counted as a live connection, so it
// must not count as a lost one either.
func newWireWorker(ctx context.Context, end farEnd, in io.WriteCloser, out io.Reader) (*wireWorker, error) {
	w := &wireWorker{end: end, in: in, enc: json.NewEncoder(in), name: "worker"}
	if h, ok := end.(*connHandle); ok {
		w.f, w.p, w.name = h.f, h.p, h.p.addr
		w.hbTimeout = h.f.cfg.HeartbeatTimeout
	}
	w.sc = bufio.NewScanner(out)
	w.sc.Buffer(make([]byte, 0, 64<<10), maxFrameBytes)

	hello := make(chan error, 1)
	go func() {
		if !w.sc.Scan() {
			hello <- transportErr("%s closed before hello: %v", w.name, w.sc.Err())
			return
		}
		w.heard()
		var h wireHello
		if err := json.Unmarshal(w.sc.Bytes(), &h); err != nil || h.Hello == nil {
			hello <- transportErr("bad hello frame from %s", w.name)
			return
		}
		if h.Hello.SchemaVersion != WireSchemaVersion {
			hello <- transportErr("%s speaks wire schema %d, coordinator speaks %d",
				w.name, h.Hello.SchemaVersion, WireSchemaVersion)
			return
		}
		if w.hbTimeout <= 0 && h.Hello.HBMillis > 0 {
			w.hbTimeout = max(3*time.Duration(h.Hello.HBMillis)*time.Millisecond, time.Second)
		}
		hello <- nil
	}()
	timer := time.NewTimer(helloTimeout)
	defer timer.Stop()
	var err error
	select {
	case err = <-hello:
		if err == nil {
			return w, nil
		}
	case <-ctx.Done():
		err = transportErr("spawn cancelled: %v", ctx.Err())
	case <-timer.C:
		err = transportErr("hello from %s timed out after %v", w.name, helloTimeout)
	}
	in.Close()
	return nil, err
}

// heard stamps the stream's watchdog clock and, for a TCP stream, the
// peer's stats-facing one.
func (w *wireWorker) heard() {
	now := time.Now().UnixNano()
	w.lastHeard.Store(now)
	if w.p != nil {
		w.p.lastHeard.Store(now)
	}
}

// call ships one frame and waits for its non-heartbeat reply. Write and read
// both happen in a helper goroutine so a stalled far end (full pipe, wedged
// process, silent peer) cannot wedge the caller past its context or the
// watchdog.
func (w *wireWorker) call(ctx context.Context, req wireRequest) (*wireResponse, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.poisoned.Load() {
		return nil, transportErr("%s poisoned by an earlier failure", w.name)
	}
	req.ID = w.nextID.Add(1)
	// The watchdog measures silence within this call, not across idle gaps
	// (heartbeats queued while idle are only drained once a reader runs).
	w.heard()

	type outcome struct {
		resp *wireResponse
		err  error
	}
	ch := make(chan outcome, 1)
	go func() {
		if err := w.enc.Encode(req); err != nil {
			ch <- outcome{nil, transportErr("write to %s: %v", w.name, err)}
			return
		}
		for {
			if !w.sc.Scan() {
				ch <- outcome{nil, transportErr("stream from %s ended: %v", w.name, w.sc.Err())}
				return
			}
			w.heard()
			var resp wireResponse
			if err := json.Unmarshal(w.sc.Bytes(), &resp); err != nil {
				ch <- outcome{nil, transportErr("corrupt frame from %s: %v", w.name, err)}
				return
			}
			if !resp.HB {
				ch <- outcome{&resp, nil}
				return
			}
			if w.p != nil {
				w.p.heartbeats.Add(1)
				w.f.mHeartbeats.With(w.p.addr).Inc()
			}
		}
	}()

	var wdC <-chan time.Time
	if w.hbTimeout > 0 {
		wd := time.NewTicker(max(w.hbTimeout/4, time.Millisecond))
		defer wd.Stop()
		wdC = wd.C
	}
	for {
		select {
		case <-ctx.Done():
			w.Kill()
			return nil, transportErr("call to %s abandoned: %v", w.name, ctx.Err())
		case <-wdC:
			if time.Since(time.Unix(0, w.lastHeard.Load())) > w.hbTimeout {
				if w.p != nil {
					w.p.partitions.Add(1)
					w.f.mPartitions.With(w.p.addr).Inc()
				}
				w.Kill()
				return nil, transportErr("peer %s partitioned: no frames for %v", w.name, w.hbTimeout)
			}
		case out := <-ch:
			if out.err == nil && out.resp.ID != req.ID {
				out.err = transportErr("frame id mismatch from %s: got %d, want %d", w.name, out.resp.ID, req.ID)
			}
			if out.err != nil {
				w.Kill()
				return nil, out.err
			}
			return out.resp, nil
		}
	}
}

func (w *wireWorker) Execute(ctx context.Context, c *Cell) (*engine.Result, error) {
	req, err := c.request()
	if err != nil {
		return nil, err
	}
	resp, err := w.call(ctx, req)
	if err != nil {
		return nil, err
	}
	res, err := resultFromWire(resp)
	if err == nil && res.Cached && w.p != nil {
		w.p.cacheHits.Add(1)
		w.f.mCacheHits.With(w.p.addr).Inc()
	}
	return res, err
}

// Kill poisons the worker and tears its stream down, unblocking any reader.
func (w *wireWorker) Kill() {
	w.killOnce.Do(func() {
		w.poisoned.Store(true)
		w.in.Close()
		w.end.kill()
	})
}

// Close shuts the worker down. Closing its input is the clean shutdown
// signal — a worker's serve loop exits on EOF, and a daemon keeps serving
// its other connections — and Kill then guarantees progress if the far end
// does not comply within 2s.
func (w *wireWorker) Close() error {
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.end.wait()
	}()
	w.in.Close()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
	}
	w.Kill()
	<-done
	return nil
}

// ---- subprocess worker ----

// cmdHandle is a worker subprocess's end of its stdin/stdout stream.
type cmdHandle struct {
	cmd      *exec.Cmd
	waitOnce sync.Once
	waitErr  error
}

func (h *cmdHandle) kill() {
	if h.cmd.Process != nil {
		h.cmd.Process.Kill()
	}
}

func (h *cmdHandle) wait() error {
	h.waitOnce.Do(func() { h.waitErr = h.cmd.Wait() })
	return h.waitErr
}

// Proc returns a Spawner that launches exe args... as a worker subprocess
// speaking the wire protocol on stdin/stdout (levserve -worker). Stderr is
// discarded — workers are disposable; diagnosis happens through typed
// errors and metrics, not log scraping.
func Proc(exe string, args ...string) Spawner {
	return func(ctx context.Context) (Worker, error) {
		cmd := exec.Command(exe, args...)
		in, err := cmd.StdinPipe()
		if err != nil {
			return nil, transportErr("spawn %s: %v", exe, err)
		}
		out, err := cmd.StdoutPipe()
		if err != nil {
			in.Close()
			return nil, transportErr("spawn %s: %v", exe, err)
		}
		if err := cmd.Start(); err != nil {
			in.Close()
			return nil, transportErr("spawn %s: %v", exe, err)
		}
		h := &cmdHandle{cmd: cmd}
		w, err := newWireWorker(ctx, h, in, out)
		if err != nil {
			h.kill()
			h.wait() // reap
			return nil, err
		}
		return w, nil
	}
}

// ---- in-process pipe worker ----

// pipeHandle runs ServeWorker in a goroutine over in-memory pipes: the full
// wire protocol — framing, typed error round-trips, poisoning — without
// process-spawn overhead. Tests and single-binary deployments use it to
// exercise the exact code path a subprocess worker takes.
type pipeHandle struct {
	cancel context.CancelFunc
	inR    *io.PipeReader
	outW   *io.PipeWriter
	done   chan struct{}
}

func (h *pipeHandle) kill() {
	h.cancel()
	h.inR.CloseWithError(io.EOF)
	h.outW.CloseWithError(io.ErrClosedPipe)
}

func (h *pipeHandle) wait() error {
	<-h.done
	return nil
}

// Pipe returns a Spawner whose workers speak the wire protocol through
// in-memory pipes to a ServeWorker goroutine.
func Pipe() Spawner {
	return func(ctx context.Context) (Worker, error) {
		inR, inW := io.Pipe()   // coordinator → worker
		outR, outW := io.Pipe() // worker → coordinator
		wctx, cancel := context.WithCancel(context.Background())
		h := &pipeHandle{cancel: cancel, inR: inR, outW: outW, done: make(chan struct{})}
		go func() {
			defer close(h.done)
			ServeWorker(wctx, inR, outW)
			outW.Close()
		}()
		w, err := newWireWorker(ctx, h, inW, outR)
		if err != nil {
			h.kill()
			return nil, err
		}
		return w, nil
	}
}
