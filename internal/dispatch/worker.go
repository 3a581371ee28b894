package dispatch

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
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
// coordinator; the marshaled program image for the stdio transport is
// computed lazily and shared across retries.
type Cell struct {
	// Name labels the cell in results, errors, and metrics.
	Name string
	// Program is the built program to simulate (immutable during runs).
	Program *isa.Program
	// Overrides selects policy, ROB size, cycle limit, and deadline.
	Overrides engine.Overrides
	// Verify cross-checks the run against the reference model.
	Verify bool
	// UseRef runs the program on the functional reference model instead of
	// the out-of-order core (no policy, no Stats).
	UseRef bool
	// Config, when non-nil, is the core the cell runs on (nil means the
	// default core); the Overrides apply on top. The wire carries no core
	// configuration, so stdio and TCP workers reject such a cell as a
	// permanent build error: only in-process workers run it.
	Config *cpu.Config

	imgOnce sync.Once
	img     []byte
	imgErr  error
}

// image returns the cell's serialized LEV64 image for the wire transport,
// marshaling once no matter how many attempts ship it.
func (c *Cell) image() ([]byte, error) {
	c.imgOnce.Do(func() {
		if c.Program == nil {
			c.imgErr = fmt.Errorf("dispatch: cell %q has no program", c.Name)
			return
		}
		c.img, c.imgErr = c.Program.MarshalBinary()
	})
	return c.img, c.imgErr
}

// request renders the cell as one wire frame.
func (c *Cell) request() (wireRequest, error) {
	if c.Config != nil {
		return wireRequest{}, simerr.New(simerr.KindBuild,
			"dispatch: cell %q sets a core configuration, which the wire cannot carry", c.Name)
	}
	img, err := c.image()
	if err != nil {
		return wireRequest{}, err
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
// every worker finally runs, and what resultKey keys.
func (c *Cell) engineRequest() engine.Request {
	return engine.Request{
		Name:      c.Name,
		Program:   c.Program,
		Verify:    c.Verify,
		UseRef:    c.UseRef,
		Overrides: c.Overrides,
		Config:    c.Config,
	}
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
	if c.Program == nil {
		return nil, fmt.Errorf("dispatch: cell %q has no program", c.Name)
	}
	return engine.Run(ctx, c.engineRequest())
}

func (w *inprocWorker) Kill()        { w.killed.Store(true) }
func (w *inprocWorker) Close() error { w.Kill(); return nil }

// ---- wire-protocol worker client ----

// procHandle abstracts the thing on the far side of a stdio worker's pipes:
// a real subprocess, or a goroutine serving the same protocol in-process.
type procHandle interface {
	// kill tears the far side down (idempotent); it must unblock any
	// reader/writer on the pipes.
	kill()
	// wait blocks until the far side has exited.
	wait() error
}

// stdioWorker is the coordinator-side client for one worker speaking the
// NDJSON protocol over a byte stream. Calls are strictly sequential (the
// coordinator's slot ownership guarantees it); an abandoned call — context
// cancelled while a frame is in flight — poisons the worker, because the
// protocol has no cancel frame and the stream position is now unknown. The
// coordinator responds by killing and respawning it.
type stdioWorker struct {
	proc procHandle
	in   io.WriteCloser
	enc  *json.Encoder
	sc   *bufio.Scanner

	nextID   atomic.Uint64
	poisoned atomic.Bool
	killOnce sync.Once

	mu sync.Mutex // serializes call; belt over the coordinator's suspenders
}

// newStdioWorker wraps the pipe pair, performs the hello handshake, and
// returns a ready worker.
func newStdioWorker(ctx context.Context, proc procHandle, in io.WriteCloser, out io.Reader) (*stdioWorker, error) {
	w := &stdioWorker{proc: proc, in: in, enc: json.NewEncoder(in)}
	w.sc = bufio.NewScanner(out)
	w.sc.Buffer(make([]byte, 0, 64<<10), maxFrameBytes)

	hello := make(chan error, 1)
	go func() {
		if !w.sc.Scan() {
			hello <- transportErr("worker exited before hello: %v", w.sc.Err())
			return
		}
		var h wireHello
		if err := json.Unmarshal(w.sc.Bytes(), &h); err != nil || h.Hello == nil {
			hello <- transportErr("bad hello frame: %q", w.sc.Text())
			return
		}
		if h.Hello.SchemaVersion != WireSchemaVersion {
			hello <- transportErr("worker speaks wire schema %d, coordinator speaks %d",
				h.Hello.SchemaVersion, WireSchemaVersion)
			return
		}
		hello <- nil
	}()
	timer := time.NewTimer(helloTimeout)
	defer timer.Stop()
	select {
	case err := <-hello:
		if err != nil {
			w.Kill()
			return nil, err
		}
		return w, nil
	case <-ctx.Done():
		w.Kill()
		return nil, transportErr("spawn cancelled: %v", ctx.Err())
	case <-timer.C:
		w.Kill()
		return nil, transportErr("worker hello timed out after %v", helloTimeout)
	}
}

// call ships one frame and waits for its reply. Write and read both happen
// in a helper goroutine so a stalled worker (full pipe, wedged process)
// cannot wedge the caller past its context.
func (w *stdioWorker) call(ctx context.Context, req wireRequest) (*wireResponse, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.poisoned.Load() {
		return nil, transportErr("worker poisoned by an abandoned call")
	}
	req.ID = w.nextID.Add(1)

	type outcome struct {
		resp *wireResponse
		err  error
	}
	ch := make(chan outcome, 1)
	go func() {
		if err := w.enc.Encode(req); err != nil {
			ch <- outcome{nil, transportErr("write to worker: %v", err)}
			return
		}
		if !w.sc.Scan() {
			ch <- outcome{nil, transportErr("worker stream ended: %v", w.sc.Err())}
			return
		}
		var resp wireResponse
		if err := json.Unmarshal(w.sc.Bytes(), &resp); err != nil {
			ch <- outcome{nil, transportErr("corrupt frame from worker: %v", err)}
			return
		}
		ch <- outcome{&resp, nil}
	}()

	select {
	case <-ctx.Done():
		// No cancel frame in the protocol: the stream position is now
		// unknown, so this worker can never be trusted again.
		w.poisoned.Store(true)
		return nil, transportErr("call abandoned: %v", ctx.Err())
	case out := <-ch:
		if out.err != nil {
			w.poisoned.Store(true)
			return nil, out.err
		}
		if out.resp.ID != req.ID {
			w.poisoned.Store(true)
			return nil, transportErr("frame id mismatch: got %d, want %d", out.resp.ID, req.ID)
		}
		return out.resp, nil
	}
}

func (w *stdioWorker) Execute(ctx context.Context, c *Cell) (*engine.Result, error) {
	req, err := c.request()
	if err != nil {
		return nil, err
	}
	resp, err := w.call(ctx, req)
	if err != nil {
		return nil, err
	}
	return resultFromWire(resp)
}

func (w *stdioWorker) Kill() {
	w.killOnce.Do(func() {
		w.poisoned.Store(true)
		w.in.Close()
		w.proc.kill()
	})
}

func (w *stdioWorker) Close() error {
	// Closing stdin is the clean shutdown signal (the worker loop exits on
	// EOF); kill guarantees progress if it doesn't comply.
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.proc.wait()
	}()
	w.in.Close()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		w.Kill()
		<-done
	}
	return nil
}

// ---- subprocess worker ----

// cmdHandle adapts an exec.Cmd to procHandle.
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
		w, err := newStdioWorker(ctx, h, in, out)
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
	once   sync.Once
}

func (h *pipeHandle) kill() {
	h.once.Do(func() {
		h.cancel()
		h.inR.CloseWithError(io.EOF)
		h.outW.CloseWithError(io.ErrClosedPipe)
	})
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
		w, err := newStdioWorker(ctx, h, inW, outR)
		if err != nil {
			h.kill()
			return nil, err
		}
		return w, nil
	}
}
