package dispatch

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"levioso/internal/cpu"
	"levioso/internal/engine"
	"levioso/internal/simerr"
)

// WireSchemaVersion is the coordinator↔worker protocol generation. It is the
// same additive-fields-don't-bump discipline as the levserve HTTP schema: a
// worker and coordinator disagreeing on it refuse to pair at handshake time
// instead of misinterpreting frames mid-batch. The heartbeat (hb/hb_ms) and
// worker-cache (cached) fields are additive: an older peer ignores them.
//
// v2: reference-model cells (request "ref", response "ref"/"ref_insts").
// Not additive — a v1 worker would ignore "ref" and answer with a core
// simulation — so a v1 peer fails the hello instead.
const WireSchemaVersion = 2

// maxFrameBytes bounds one NDJSON frame on both sides of the pipe. Program
// images are capped well below this by the HTTP body limit; a frame this
// large is a corrupted stream, not a big program.
const maxFrameBytes = 64 << 20

// wireHello is the first frame a worker writes after starting. The
// coordinator refuses workers whose schema version differs.
type wireHello struct {
	Hello *wireHelloBody `json:"hello"`
}

type wireHelloBody struct {
	SchemaVersion int `json:"schema_version"`
	PID           int `json:"pid"`
	// HBMillis advertises the worker's heartbeat interval in milliseconds
	// (TCP workers only; 0 = no heartbeats). The coordinator derives its
	// partition-detection timeout from it.
	HBMillis int64 `json:"hb_ms,omitempty"`
}

// wireRequest is one coordinator→worker frame: a health probe (Ping) or one
// cell to simulate. The program travels as its serialized LEV64 image
// (base64 in JSON); options mirror the levserve wire names, so the two JSON
// APIs stay mutually intelligible.
type wireRequest struct {
	ID         uint64 `json:"id"`
	Ping       bool   `json:"ping,omitempty"`
	Name       string `json:"name,omitempty"`
	Binary     []byte `json:"binary,omitempty"`
	Policy     string `json:"policy,omitempty"`
	ROB        int    `json:"rob,omitempty"`
	MaxCycles  uint64 `json:"max_cycles,omitempty"`
	DeadlineMS int64  `json:"deadline_ms,omitempty"`
	Verify     bool   `json:"verify,omitempty"`
	Ref        bool   `json:"ref,omitempty"`
}

// wireError carries a typed simulation failure across the pipe. Kind is the
// simerr kind name; the coordinator reconstitutes the classification with
// simerr.ParseKind, so transient/permanent retry decisions survive the
// process boundary.
type wireError struct {
	Kind      string `json:"kind"`
	Message   string `json:"message"`
	Retryable bool   `json:"retryable"`
}

// wireResponse is one worker→coordinator frame, answering the request with
// the matching ID. HB frames (TCP transport) carry no ID and interleave with
// responses; Cached marks a result served from the worker daemon's shared
// result cache, advertised back so the coordinator can count cross-daemon
// repeats.
type wireResponse struct {
	ID       uint64     `json:"id"`
	Pong     bool       `json:"pong,omitempty"`
	HB       bool       `json:"hb,omitempty"`
	Exit     uint64     `json:"exit,omitempty"`
	Output   string     `json:"output,omitempty"`
	Stats    *cpu.Stats `json:"stats,omitempty"`
	Ref      bool       `json:"ref,omitempty"`
	RefInsts uint64     `json:"ref_insts,omitempty"`
	Cached   bool       `json:"cached,omitempty"`
	Error    *wireError `json:"error,omitempty"`
}

// resultFromWire turns a worker's answer frame back into an engine result,
// reconstituting a typed failure when the frame carries one.
func resultFromWire(resp *wireResponse) (*engine.Result, error) {
	if resp.Error != nil {
		return nil, errorFromWire(resp.Error)
	}
	res := &engine.Result{ExitCode: resp.Exit, Output: resp.Output, Ref: resp.Ref, RefInsts: resp.RefInsts, Cached: resp.Cached}
	if resp.Stats != nil {
		res.Stats = *resp.Stats
	}
	return res, nil
}

// transportErr builds a typed transport failure (always transient: the
// simulator is deterministic, so a cell whose result never arrived is safely
// retryable on another worker).
func transportErr(format string, args ...any) *simerr.RunError {
	return simerr.New(simerr.KindTransport, format, args...)
}

// serveOptions tunes one worker serve loop beyond the plain stdio defaults.
type serveOptions struct {
	// hbInterval, when positive, advertises and emits heartbeat frames —
	// the TCP transport's liveness signal, flowing even while a long
	// simulation is in progress.
	hbInterval time.Duration
	// cache, when non-nil, is the daemon-wide shared result cache: any
	// connection served by this daemon answers repeats from it and marks
	// the reply Cached.
	cache *resultCache
}

// ServeWorker runs the worker side of the dispatch protocol over r/w —
// typically a subprocess's stdin/stdout (levserve -worker). It writes the
// hello frame, then answers one request frame per line until r reaches EOF
// (the coordinator closing the pipe is the shutdown signal) or ctx is
// cancelled. Frames are processed strictly in order, one at a time: a worker
// process is one execution slot, and the coordinator scales by spawning more
// processes, not by multiplexing frames.
//
// A malformed frame answers with a transport-kind error (ID 0) instead of
// killing the worker: the coordinator treats the mismatched ID as a
// transport failure for the in-flight call and restarts the worker on its
// own schedule.
func ServeWorker(ctx context.Context, r io.Reader, w io.Writer) error {
	return serveFrames(ctx, r, w, serveOptions{})
}

// serveFrames is the shared worker loop behind ServeWorker (stdio) and the
// TCP listener: hello, then strictly-sequential request frames. Cancellation
// is a graceful drain — an in-flight call is cancelled through ctx (the
// engine surfaces that as a typed transient error) and its response frame is
// still written before the loop exits, so a SIGTERM'd worker daemon never
// leaves the coordinator waiting on a call it silently abandoned.
func serveFrames(ctx context.Context, r io.Reader, w io.Writer, opts serveOptions) error {
	if ctx == nil {
		ctx = context.Background()
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	// Responses and heartbeats share the stream; the mutex keeps frames
	// whole when the heartbeat ticker fires mid-response.
	var wmu sync.Mutex
	send := func(resp any) error {
		wmu.Lock()
		defer wmu.Unlock()
		if err := enc.Encode(resp); err != nil {
			return fmt.Errorf("dispatch: worker encode: %w", err)
		}
		return bw.Flush()
	}

	hello := wireHelloBody{SchemaVersion: WireSchemaVersion, PID: os.Getpid()}
	if opts.hbInterval > 0 {
		hello.HBMillis = opts.hbInterval.Milliseconds()
	}
	if err := send(wireHello{Hello: &hello}); err != nil {
		return fmt.Errorf("dispatch: worker hello: %w", err)
	}

	done := make(chan struct{})
	defer close(done)
	if opts.hbInterval > 0 {
		go func() {
			t := time.NewTicker(opts.hbInterval)
			defer t.Stop()
			for {
				select {
				case <-done:
					return
				case <-t.C:
					if send(wireResponse{HB: true}) != nil {
						return // stream gone; the main loop is on its way out
					}
				}
			}
		}()
	}

	// Frames arrive through a reader goroutine so an idle loop can notice
	// cancellation immediately (the drain path) instead of blocking in Scan.
	lines := make(chan []byte)
	scanErr := make(chan error, 1)
	go func() {
		sc := bufio.NewScanner(r)
		sc.Buffer(make([]byte, 0, 64<<10), maxFrameBytes)
		for sc.Scan() {
			line := append([]byte(nil), sc.Bytes()...)
			select {
			case lines <- line:
			case <-done:
				return
			}
		}
		scanErr <- sc.Err()
		close(lines)
	}()

	for {
		var line []byte
		var ok bool
		select {
		case <-ctx.Done():
			return ctx.Err() // idle: nothing in flight, drain immediately
		case line, ok = <-lines:
		}
		if !ok {
			if err := <-scanErr; err != nil {
				return fmt.Errorf("dispatch: worker read: %w", err)
			}
			return nil
		}
		var req wireRequest
		if err := json.Unmarshal(line, &req); err != nil {
			if serr := send(wireResponse{Error: &wireError{
				Kind:      simerr.KindTransport.String(),
				Message:   fmt.Sprintf("dispatch: worker: bad frame: %v", err),
				Retryable: true,
			}}); serr != nil {
				return serr
			}
			continue
		}
		if req.Ping {
			if err := send(wireResponse{ID: req.ID, Pong: true}); err != nil {
				return err
			}
			continue
		}
		if err := send(runWireRequest(ctx, req, opts.cache)); err != nil {
			return err
		}
		if ctx.Err() != nil {
			return ctx.Err() // drain: the in-flight call was answered first
		}
	}
}

// runWireRequest executes one cell frame through the shared engine pipeline
// and renders the reply frame, consulting the daemon's shared result cache
// first when one is configured. Failures become typed wire errors; the engine
// already recovers panics into simerr.ErrPanic, so one poisoned cell cannot
// take the worker process down.
func runWireRequest(ctx context.Context, req wireRequest, cache *resultCache) wireResponse {
	res, cached, err := runWireCell(ctx, req, cache)
	if err != nil {
		return wireResponse{ID: req.ID, Error: &wireError{
			Kind:      simerr.KindOf(err).String(),
			Message:   err.Error(),
			Retryable: simerr.Transient(err),
		}}
	}
	return wireResponse{ID: req.ID, Exit: res.ExitCode, Output: res.Output, Stats: &res.Stats,
		Ref: res.Ref, RefInsts: res.RefInsts, Cached: cached}
}

// runWireCell rebuilds the frame's cell and runs it, answering repeats from
// the daemon cache under the same resultKey the coordinator uses.
func runWireCell(ctx context.Context, req wireRequest, cache *resultCache) (engine.Result, bool, error) {
	prog, err := engine.Load(req.Name, req.Binary)
	if err != nil {
		return engine.Result{}, false, err
	}
	cell := &Cell{
		Name:    req.Name,
		Program: prog,
		Verify:  req.Verify,
		UseRef:  req.Ref,
		Overrides: engine.Overrides{
			Policy:    req.Policy,
			ROBSize:   req.ROB,
			MaxCycles: req.MaxCycles,
			Deadline:  time.Duration(req.DeadlineMS) * time.Millisecond,
		},
	}
	if err := cell.Overrides.Normalize(); err != nil {
		return engine.Result{}, false, err
	}
	key, cacheable := "", false
	if cache != nil {
		key, cacheable = resultKey(ctx, cell)
	}
	if cacheable {
		if res, ok := cache.Get(key); ok {
			return res, true, nil
		}
	}
	res, err := engine.Run(ctx, cell.engineRequest())
	if err != nil {
		return engine.Result{}, false, err
	}
	if cacheable {
		cache.Put(key, *res)
	}
	return *res, false, nil
}

// errorFromWire reconstitutes a typed failure from its wire form, preserving
// the transient/permanent classification across the process boundary.
func errorFromWire(we *wireError) error {
	return &simerr.RunError{Kind: simerr.ParseKind(we.Kind), Detail: we.Message}
}
