// Package serve implements levserve, the HTTP/JSON simulation daemon over
// internal/engine. Every simulation — a /v1/simulate request is a cell of
// one, a /v1/batch request many — runs through one dispatch.Coordinator:
// its admission control, content-addressed result cache (the simulator is
// deterministic, so repeated sweep cells are served without re-simulating),
// single-flight dedup, retries, and worker slots. Fuzz campaigns hold one of
// those slots for their whole life. Request contexts are threaded into the
// engine end to end: a client that disconnects cancels its in-flight
// simulation and frees the worker slot.
//
// Endpoints:
//
//	POST /v1/simulate  — run one request (JSON body, see SimRequest)
//	POST /v1/batch     — run many cells, streamed back as NDJSON (BatchRequest)
//	GET  /v1/policies  — list secure-speculation policies
//	GET  /v1/workloads — list the embedded benchmark suite
//	GET  /v1/stats     — server counters (requests, cache hits, in-flight)
//	GET  /v1/version   — wire-schema version plus build information
//	GET  /metrics      — Prometheus text exposition (internal/obs registry)
//	GET  /healthz      — liveness
//	GET  /debug/pprof/ — optional profiling (Config.EnablePprof)
//
// # Wire protocol versioning
//
// Every successful JSON reply carries "schema_version" (the SchemaVersion
// constant); clients pin on it instead of sniffing field shapes. Unknown
// top-level fields in a SimRequest are rejected with 400 — a misspelled
// option fails loudly instead of being silently ignored.
//
// # Error envelope
//
// Every error response — 400 (malformed request), 413 (body too large),
// 422 (simulation failed), 503 (gave up queueing for a worker), 504
// (deadline expired) — shares one JSON shape:
//
//	{"error": {"kind": "deadline", "message": "...", "retryable": true}}
//
// kind is the typed simerr failure class (build, deadline, divergence,
// watchdog, cycle-limit, inst-limit, panic, mem-fault, unknown) and
// retryable mirrors simerr.Transient, so sweep clients classify failures
// exactly the way the in-process supervisor does. The kind is also echoed
// in the X-Error-Kind response header.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"levioso/internal/cli"
	"levioso/internal/cpu"
	"levioso/internal/dispatch"
	"levioso/internal/engine"
	"levioso/internal/obs"
	"levioso/internal/secure"
	"levioso/internal/simerr"
	"levioso/internal/workloads"
)

// SchemaVersion is the wire-protocol generation. It bumps when a JSON
// response shape changes incompatibly; additive optional fields do not bump
// it. Carried in every successful response as "schema_version".
//
// v2: GET /v1/policies returns full self-describing descriptors (objects)
// under "policies" instead of a bare name list; POST /v1/simulate accepts
// "params" for parameterized policies.
//
// v3: coverage-guided fuzz campaigns — POST /v1/fuzz, GET /v1/fuzz/{id},
// GET /v1/fuzz/{id}/findings — and GET /v1/version now enumerates the
// mounted routes under "routes".
const SchemaVersion = 3

// Config tunes a Server. The zero value picks sane defaults.
type Config struct {
	// DefaultDeadline bounds requests that do not set deadline_ms
	// (default 60s; negative means no default bound).
	DefaultDeadline time.Duration
	// MaxBody caps the request body size in bytes (default 8 MiB).
	MaxBody int64
	// AccessLog, when non-nil, receives one structured JSON line per
	// request (see accessRecord). Lines are mutex-serialized.
	AccessLog io.Writer
	// EnablePprof mounts net/http/pprof under /debug/pprof/ (off by
	// default: profiling endpoints on a public daemon are opt-in).
	EnablePprof bool

	// FuzzDir is the base directory for /v1/fuzz campaign state
	// (default: "levserve-fuzz" under the OS temp directory). Each campaign
	// id gets a subdirectory holding its crash-safe state file and repros.
	FuzzDir string

	// Dispatch configures the coordinator every simulation runs through
	// (see dispatch.Config): worker slots, spawner, result-cache size,
	// queue depth — which also caps cells per /v1/batch request — and
	// retry/breaker tuning. Nil, or zero Workers, gets GOMAXPROCS worker
	// slots. The coordinator's metrics always land in this server's
	// registry.
	Dispatch *dispatch.Config

	// Remote, when non-empty, dispatches cells to worker daemons at these
	// TCP addresses (levserve -worker-listen) instead of local workers;
	// Dispatch.Spawn, if also set, is overridden. Worker count defaults to
	// len(Remote) so each peer gets one connection.
	Remote []string
	// RemoteConfig tunes the TCP transport lifecycle (dial timeout, redial
	// backoff, heartbeat timeout, fault-injection conn wrapper). Its
	// Registry is replaced by this server's.
	RemoteConfig dispatch.RemoteConfig
}

func (c Config) withDefaults() Config {
	if c.DefaultDeadline == 0 {
		c.DefaultDeadline = time.Minute
	}
	if c.MaxBody <= 0 {
		c.MaxBody = 8 << 20
	}
	return c
}

// Server is the levserve HTTP handler plus its execution coordinator and
// metrics registry.
type Server struct {
	cfg      Config
	mux      *http.ServeMux
	reg      *obs.Registry
	dispatch *dispatch.Coordinator
	workers  int                   // the coordinator's worker slots
	fleet    *dispatch.RemoteFleet // non-nil when cfg.Remote is set

	// fuzz campaign lifecycle: id -> run, plus the context every campaign
	// goroutine runs under (Close cancels it).
	fuzzMu     sync.Mutex
	fuzzRuns   map[string]*campaignRun
	fuzzCtx    context.Context
	fuzzCancel context.CancelFunc

	accessLog io.Writer
	logMu     sync.Mutex
	idBase    string
	idSeq     atomic.Uint64

	requests atomic.Uint64
	failures atomic.Uint64
	rejected atomic.Uint64

	// request-path metrics, resolved once at construction (the hot path
	// only touches atomics, never the registry's family map).
	mRejected  *obs.Counter
	mBodyBytes *obs.Histogram
}

// New builds a server with the given configuration. Each server owns its
// own obs.Registry (served at GET /metrics), so tests and multi-tenant
// embeddings never share series. The error is the coordinator's: with the
// default in-process workers it cannot fail, but a Dispatch configuration
// spawning subprocess workers can. Close releases the coordinator's workers.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	reg := obs.NewRegistry()
	s := &Server{
		cfg:       cfg,
		mux:       http.NewServeMux(),
		reg:       reg,
		accessLog: cfg.AccessLog,
		idBase:    fmt.Sprintf("%08x", uint32(time.Now().UnixNano())),

		mRejected:  reg.Counter("levserve_rejected_total", "requests shed by admission control or given up while queueing for a worker slot"),
		mBodyBytes: reg.Histogram("levserve_request_body_bytes", "declared simulate request body sizes in bytes", obs.SizeBuckets()),
	}
	s.fuzzRuns = make(map[string]*campaignRun)
	s.fuzzCtx, s.fuzzCancel = context.WithCancel(context.Background())
	dcfg := dispatch.Config{}
	if cfg.Dispatch != nil {
		dcfg = *cfg.Dispatch
	}
	if len(cfg.Remote) > 0 {
		rc := cfg.RemoteConfig
		rc.Registry = reg
		fleet, err := dispatch.NewRemote(rc, cfg.Remote...)
		if err != nil {
			return nil, fmt.Errorf("serve: remote worker fleet: %w", err)
		}
		s.fleet = fleet
		dcfg.Spawn = fleet.Spawner()
		if dcfg.Workers <= 0 {
			dcfg.Workers = len(cfg.Remote)
		}
	}
	if dcfg.Workers <= 0 {
		dcfg.Workers = runtime.GOMAXPROCS(0)
	}
	dcfg.Registry = reg // coordinator metrics belong to this server's /metrics
	co, err := dispatch.New(context.Background(), dcfg)
	if err != nil {
		return nil, fmt.Errorf("serve: starting coordinator: %w", err)
	}
	s.dispatch, s.workers = co, dcfg.Workers

	s.mux.HandleFunc("POST /v1/simulate", s.instrument("simulate", s.handleSimulate))
	s.mux.HandleFunc("POST /v1/batch", s.instrument("batch", s.handleBatch))
	s.mux.HandleFunc("GET /v1/policies", s.instrument("policies", s.handlePolicies))
	s.mux.HandleFunc("GET /v1/workloads", s.instrument("workloads", s.handleWorkloads))
	s.mux.HandleFunc("GET /v1/stats", s.instrument("stats", s.handleStats))
	s.mux.HandleFunc("GET /v1/version", s.instrument("version", s.handleVersion))
	s.mux.HandleFunc("POST /v1/fuzz", s.instrument("fuzz", s.handleFuzzStart))
	s.mux.HandleFunc("GET /v1/fuzz/{id}", s.instrument("fuzz_status", s.handleFuzzStatus))
	s.mux.HandleFunc("GET /v1/fuzz/{id}/findings", s.instrument("fuzz_findings", s.handleFuzzFindings))
	s.mux.HandleFunc("GET /metrics", s.instrument("metrics", s.handleMetrics))
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("ok\n"))
	})
	if cfg.EnablePprof {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s, nil
}

// Handler returns the HTTP handler for the server.
func (s *Server) Handler() http.Handler { return s.mux }

// Close shuts down the coordinator and its workers, and cancels any running
// fuzz campaigns (their state files keep every committed case, so a later
// server resumes them). In-flight simulate requests and batch cells fail.
func (s *Server) Close() error {
	s.fuzzCancel()
	return s.dispatch.Close()
}

// Metrics returns the server's metric registry (what GET /metrics serves).
func (s *Server) Metrics() *obs.Registry { return s.reg }

// SimRequest is the JSON body of POST /v1/simulate. Exactly one program
// input — source, asm, binary (base64), or workload — must be set. Unknown
// top-level fields are rejected with 400.
type SimRequest struct {
	Name     string `json:"name,omitempty"`
	Source   string `json:"source,omitempty"`   // LevC source
	Asm      string `json:"asm,omitempty"`      // LEV64 assembly
	Binary   []byte `json:"binary,omitempty"`   // LEV64 image, base64 in JSON
	Workload string `json:"workload,omitempty"` // embedded suite name
	Size     string `json:"size,omitempty"`     // workload scale: test|ref (default test)

	NoAnnotate bool              `json:"no_annotate,omitempty"`
	Policy     string            `json:"policy,omitempty"` // spec string, default "unsafe"
	Params     map[string]string `json:"params,omitempty"` // policy parameters (merged over Policy's inline ones)
	ROB        int               `json:"rob,omitempty"`
	MaxCycles  uint64            `json:"max_cycles,omitempty"`
	Ref        bool              `json:"ref,omitempty"`
	Verify     bool              `json:"verify,omitempty"`
	DeadlineMS int64             `json:"deadline_ms,omitempty"`
}

// simRequestFields lists the accepted SimRequest keys, for the unknown-field
// rejection message. Keep in sync with the struct tags above.
const simRequestFields = "name, source, asm, binary, workload, size, no_annotate, policy, params, rob, max_cycles, ref, verify, deadline_ms"

// SimResponse is the JSON reply of POST /v1/simulate.
type SimResponse struct {
	SchemaVersion int       `json:"schema_version"`
	Exit          uint64    `json:"exit"`
	Output        string    `json:"output"`
	Ref           bool      `json:"ref,omitempty"`
	Insts         uint64    `json:"insts,omitempty"`
	Stats         cpu.Stats `json:"stats"`
	Cached        bool      `json:"cached"`
	ElapsedMS     int64     `json:"elapsed_ms"`
}

// ErrorEnvelope is the JSON shape of every error response (see the package
// comment). The envelope nests under "error" so a client can distinguish a
// failure reply from a result with one key test.
type ErrorEnvelope struct {
	Error ErrorBody `json:"error"`
}

// ErrorBody carries the typed failure classification. QueueDepth appears on
// load-related rejections (503/504) so a backing-off client can see how far
// behind the server is, alongside the Retry-After header.
type ErrorBody struct {
	Kind       string `json:"kind"`      // simerr kind: build, deadline, ...
	Message    string `json:"message"`   // human-readable cause
	Retryable  bool   `json:"retryable"` // mirrors simerr.Transient
	QueueDepth int64  `json:"queue_depth,omitempty"`
}

// ServerStats is the JSON reply of GET /v1/stats.
type ServerStats struct {
	SchemaVersion  int    `json:"schema_version"`
	Requests       uint64 `json:"requests"`
	CacheHits      uint64 `json:"cache_hits"`
	CacheMisses    uint64 `json:"cache_misses"`
	CacheEvictions uint64 `json:"cache_evictions"`
	Failures       uint64 `json:"failures"`
	Rejected       uint64 `json:"rejected"`
	InFlight       int64  `json:"in_flight"`
	Workers        int    `json:"workers"`
	CacheEntries   int    `json:"cache_entries"`
	// Dispatch is the coordinator every simulation runs through: worker
	// fleet health, retry/breaker/shed counters, and the shared result
	// cache the top-level cache and in-flight numbers are read from.
	Dispatch dispatch.Stats `json:"dispatch"`
	// RemotePeers reports per-peer connection state (address, live
	// connections, reconnects, partitions, heartbeat age) when the
	// coordinator dispatches to remote TCP workers.
	RemotePeers []dispatch.PeerStats `json:"remote_peers,omitempty"`
}

// VersionInfo is the JSON reply of GET /v1/version.
type VersionInfo struct {
	SchemaVersion int      `json:"schema_version"`
	GoVersion     string   `json:"go_version"`
	Routes        []string `json:"routes"` // mounted method+path patterns
	Module        string   `json:"module,omitempty"`
	Revision      string   `json:"vcs_revision,omitempty"`
	BuildTime     string   `json:"vcs_time,omitempty"`
	Modified      bool     `json:"vcs_modified,omitempty"`
}

// apiRoutes enumerates the wire API for /v1/version, so clients discover
// capabilities (is /v1/fuzz mounted?) instead of probing with 404s. Keep in
// sync with the registrations in New.
func apiRoutes() []string {
	return []string{
		"POST /v1/simulate",
		"POST /v1/batch",
		"POST /v1/fuzz",
		"GET /v1/fuzz/{id}",
		"GET /v1/fuzz/{id}/findings",
		"GET /v1/policies",
		"GET /v1/workloads",
		"GET /v1/stats",
		"GET /v1/version",
		"GET /metrics",
		"GET /healthz",
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// statusFor maps the typed failure taxonomy onto HTTP statuses: build
// problems are the client's fault, deadlines are timeouts, everything else
// is a completed-but-failed simulation.
func statusFor(err error) int {
	switch simerr.KindOf(err) {
	case simerr.KindBuild:
		return http.StatusBadRequest
	case simerr.KindDeadline:
		return http.StatusGatewayTimeout
	case simerr.KindUnknown:
		return http.StatusInternalServerError
	default:
		return http.StatusUnprocessableEntity
	}
}

// writeError renders the unified error envelope and stamps the kind into
// the X-Error-Kind header for the middleware's error counter.
func writeError(w http.ResponseWriter, status int, err error) {
	kind := simerr.KindOf(err).String()
	w.Header().Set(errKindHeader, kind)
	writeJSON(w, status, ErrorEnvelope{Error: ErrorBody{
		Kind:      kind,
		Message:   err.Error(),
		Retryable: simerr.Transient(err),
	}})
}

// retryAfterSeconds estimates when a shed or timed-out client should come
// back: roughly one queue-drain's worth of time, clamped to [1s, 60s].
func (s *Server) retryAfterSeconds() int {
	sec := 1 + s.dispatch.Pending()/int64(s.workers)
	if sec > 60 {
		sec = 60
	}
	return int(sec)
}

// writeUnavailable renders load-related failures (503 shed/queue-give-up,
// 504 deadline): the envelope gains the live queue depth and the response
// carries a Retry-After so well-behaved clients back off instead of
// hammering a saturated server.
func (s *Server) writeUnavailable(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
	kind := simerr.KindOf(err).String()
	w.Header().Set(errKindHeader, kind)
	writeJSON(w, status, ErrorEnvelope{Error: ErrorBody{
		Kind:       kind,
		Message:    err.Error(),
		Retryable:  simerr.Transient(err),
		QueueDepth: s.dispatch.Pending(),
	}})
}

// unstarted reports a request the coordinator shed, or that gave up waiting
// for a worker: no work happened.
func unstarted(err error) bool {
	return errors.Is(err, simerr.ErrShed) || errors.Is(err, dispatch.ErrQueueTimeout)
}

// writeEngineError routes a simulation failure to the right renderer:
// load-related failures — an unstarted request (503, counted as rejected)
// or an overrun deadline (504) — get the Retry-After treatment, everything
// else the plain envelope.
func (s *Server) writeEngineError(w http.ResponseWriter, err error) {
	status := statusFor(err)
	switch {
	case unstarted(err):
		s.rejected.Add(1)
		s.mRejected.Inc()
		s.writeUnavailable(w, http.StatusServiceUnavailable, err)
	case status == http.StatusGatewayTimeout:
		s.writeUnavailable(w, status, err)
	default:
		writeError(w, status, err)
	}
}

// engineRequest translates the wire request into an engine request,
// resolving workload names against the embedded suite. Option validation is
// engine.Overrides.Normalize — the same bounds the command-line flags run —
// so a request rejected here is rejected identically by levsim.
func (sr *SimRequest) engineRequest() (engine.Request, error) {
	req := engine.Request{
		Name:       sr.Name,
		Source:     sr.Source,
		AsmText:    sr.Asm,
		Binary:     sr.Binary,
		NoAnnotate: sr.NoAnnotate,
		UseRef:     sr.Ref,
		Verify:     sr.Verify,
		Overrides: engine.Overrides{
			Policy:    sr.Policy,
			Params:    sr.Params,
			ROBSize:   sr.ROB,
			MaxCycles: sr.MaxCycles,
		},
	}
	if sr.DeadlineMS < 0 {
		return req, simerr.New(simerr.KindBuild, "serve: negative deadline_ms %d", sr.DeadlineMS)
	}
	if err := req.Normalize(); err != nil {
		return req, err
	}
	if sr.Workload != "" {
		if sr.Source != "" || sr.Asm != "" || len(sr.Binary) > 0 {
			return req, simerr.New(simerr.KindBuild,
				"serve: workload %q conflicts with an inline program input", sr.Workload)
		}
		w, ok := workloads.ByName(sr.Workload)
		if !ok {
			return req, simerr.New(simerr.KindBuild,
				"serve: unknown workload %q (have %v)", sr.Workload, workloads.Names())
		}
		size := workloads.SizeTest
		if sr.Size != "" {
			var err error
			if size, err = cli.ParseSize(sr.Size); err != nil {
				return req, simerr.New(simerr.KindBuild, "serve: %v", err)
			}
		}
		prog, err := w.Build(size)
		if err != nil {
			return req, err
		}
		req.Program = prog
		if req.Name == "" {
			req.Name = sr.Workload
		}
	}
	return req, nil
}

// decodeSimRequest parses the body strictly: unknown top-level fields are a
// 400 with the accepted field list, so a misspelled option ("polcy") fails
// loudly instead of silently running under the default policy.
func decodeSimRequest(body io.Reader, sr *SimRequest) error {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(sr); err != nil {
		if strings.Contains(err.Error(), "unknown field") {
			return simerr.New(simerr.KindBuild,
				"serve: %v (accepted fields: %s)", err, simRequestFields)
		}
		return err
	}
	return nil
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	start := time.Now()
	if r.ContentLength >= 0 {
		s.mBodyBytes.Observe(float64(r.ContentLength))
	}

	var sr SimRequest
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBody)
	if err := decodeSimRequest(body, &sr); err != nil {
		// An oversized body (fuzz-shaped programs can be arbitrarily large)
		// is a distinct, typed condition: 413 with the build kind, so
		// clients can tell "shrink your request" from "your JSON is bad".
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge,
				simerr.New(simerr.KindBuild, "serve: request body exceeds %d bytes", mbe.Limit))
			return
		}
		if simerr.KindOf(err) == simerr.KindUnknown {
			err = simerr.New(simerr.KindBuild, "serve: bad request body: %v", err)
		}
		writeError(w, http.StatusBadRequest, err)
		return
	}
	req, err := sr.engineRequest()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}

	// Resolve the program up front: build errors answer immediately without
	// touching the coordinator. The coordinator's cache keys a binary input
	// on the request's image bytes (which a remote worker receives as they
	// are) and any other input on the resolved program's encoding.
	prog, _, err := engine.Resolve(r.Context(), &req)
	if err != nil {
		s.writeEngineError(w, err)
		return
	}

	// The deadline bounds the whole request — queueing for a worker
	// included — on top of the client's own cancellation; the cell carries
	// it too, so a worker on the far side of a transport stops on its own.
	deadline := s.cfg.DefaultDeadline
	if sr.DeadlineMS > 0 {
		deadline = time.Duration(sr.DeadlineMS) * time.Millisecond
	}
	ctx := r.Context()
	if deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, deadline)
		defer cancel()
		req.Deadline = deadline
	}
	res, err := s.dispatch.Execute(ctx, &dispatch.Cell{
		Name:      req.Name,
		Program:   prog,
		Image:     req.Binary,
		Overrides: req.Overrides,
		Verify:    req.Verify,
		UseRef:    req.UseRef,
	})
	if err != nil {
		if !unstarted(err) {
			s.failures.Add(1)
		}
		s.writeEngineError(w, err)
		return
	}
	s.writeResult(w, *res, start)
}

func (s *Server) writeResult(w http.ResponseWriter, res engine.Result, start time.Time) {
	writeJSON(w, http.StatusOK, SimResponse{
		SchemaVersion: SchemaVersion,
		Exit:          res.ExitCode,
		Output:        res.Output,
		Ref:           res.Ref,
		Insts:         res.RefInsts,
		Stats:         res.Stats,
		Cached:        res.Cached,
		ElapsedMS:     time.Since(start).Milliseconds(),
	})
}

// PolicyInfo is one self-describing registry entry in GET /v1/policies:
// everything a client needs to enumerate, select, and parameterize a policy
// without hardcoding names.
type PolicyInfo struct {
	Name        string         `json:"name"`
	Summary     string         `json:"summary"`
	ThreatModel string         `json:"threat_model"`
	Coverage    string         `json:"coverage"` // under default parameters
	Eval        bool           `json:"eval"`
	Ablation    bool           `json:"ablation"`
	Params      []secure.Param `json:"params,omitempty"`
}

func (s *Server) handlePolicies(w http.ResponseWriter, _ *http.Request) {
	var infos []PolicyInfo
	for _, d := range secure.Descriptors() {
		infos = append(infos, PolicyInfo{
			Name:        d.Name,
			Summary:     d.Summary,
			ThreatModel: d.ThreatModel,
			Coverage:    d.CoverageFor(nil).String(),
			Eval:        d.Eval,
			Ablation:    d.Ablation,
			Params:      d.Params,
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"schema_version": SchemaVersion,
		"policies":       infos,
		"eval":           engine.EvalPolicies(),
		"sweep":          engine.SweepPolicies(),
	})
}

func (s *Server) handleWorkloads(w http.ResponseWriter, _ *http.Request) {
	type wl struct {
		Name  string `json:"name"`
		Class string `json:"class"`
		Desc  string `json:"desc"`
	}
	var out []wl
	for _, ww := range workloads.All() {
		out = append(out, wl{Name: ww.Name, Class: ww.Class, Desc: ww.Desc})
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"schema_version": SchemaVersion,
		"workloads":      out,
	})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) handleVersion(w http.ResponseWriter, _ *http.Request) {
	v := VersionInfo{SchemaVersion: SchemaVersion, GoVersion: runtime.Version(), Routes: apiRoutes()}
	if bi, ok := debug.ReadBuildInfo(); ok {
		v.Module = bi.Main.Path
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision":
				v.Revision = kv.Value
			case "vcs.time":
				v.BuildTime = kv.Value
			case "vcs.modified":
				v.Modified = kv.Value == "true"
			}
		}
	}
	writeJSON(w, http.StatusOK, v)
}

// handleMetrics serves the registry in the Prometheus text exposition
// format (version 0.0.4 — what every scraper speaks).
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WriteProm(w)
}

// Stats snapshots the server counters. The cache and in-flight numbers are
// the coordinator's: one locked snapshot of its result cache, so
// hits/misses/evictions and the entry count always describe the same cache
// state, and its admitted-but-unfinished cell count.
func (s *Server) Stats() ServerStats {
	ds := s.dispatch.Snapshot()
	cs := ds.Cache
	var peers []dispatch.PeerStats
	if s.fleet != nil {
		peers = s.fleet.Peers()
	}
	return ServerStats{
		RemotePeers:    peers,
		SchemaVersion:  SchemaVersion,
		Requests:       s.requests.Load(),
		CacheHits:      cs.Hits,
		CacheMisses:    cs.Misses,
		CacheEvictions: cs.Evictions,
		Failures:       s.failures.Load(),
		Rejected:       s.rejected.Load(),
		InFlight:       ds.Pending,
		Workers:        s.workers,
		CacheEntries:   cs.Entries,
		Dispatch:       ds,
	}
}
