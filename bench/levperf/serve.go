package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"levioso/internal/dispatch"
	"levioso/internal/engine"
	"levioso/internal/isa"
	"levioso/internal/obs"
	"levioso/internal/ref"
	"levioso/internal/serve"
	"levioso/internal/simerr"
	"levioso/internal/workloads"
)

// servePolicies are the policies the HTTP workloads draw from: the
// unprotected baseline, the paper's scheme, and the strongest comparison.
var servePolicies = []string{"unsafe", "levioso", "prospect"}

// httpRig is a levserve instance behind a real loopback HTTP listener, with
// the benchmark's span wrapper around its handler, and the client the load
// generator shares (at most clients connections).
type httpRig struct {
	srv    *serve.Server
	hs     *httptest.Server
	client *http.Client
	tr     atomic.Pointer[tracer]
}

func newHTTPRig(cfg serve.Config) (*httpRig, error) {
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	r := &httpRig{srv: srv}
	h := srv.Handler()
	r.hs = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		tr := r.tr.Load()
		if tr == nil {
			h.ServeHTTP(w, req)
			return
		}
		op, parent := parseSpanHeader(req.Header.Get(spanHeader))
		id := tr.id()
		t0 := time.Now()
		h.ServeHTTP(w, req)
		tr.add(id, op, parent, "serve.handler", t0, time.Now())
	}))
	r.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients}}
	return r, nil
}

// post sends one request and reads the whole reply. With tr set it records
// the client-side span and tells the handler wrapper its parent.
func (r *httpRig) post(tr *tracer, name, path string, body []byte) (status int, reply []byte, t0, t1 time.Time, err error) {
	req, err := http.NewRequest(http.MethodPost, r.hs.URL+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, t0, t1, err
	}
	req.Header.Set("Content-Type", "application/json")
	var id uint64
	if tr != nil {
		id = tr.id()
		req.Header.Set(spanHeader, formatSpanHeader(id, id))
	}
	t0 = time.Now()
	resp, err := r.client.Do(req)
	if err == nil {
		reply, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		status = resp.StatusCode
	}
	t1 = time.Now()
	if tr != nil {
		tr.add(id, 0, 0, name, t0, t1)
	}
	return status, reply, t0, t1, err
}

func (r *httpRig) close() {
	r.client.CloseIdleConnections()
	r.hs.Close()
	r.srv.Close()
}

// closedLoop runs one goroutine per client; each sends its next request only
// after the previous reply, while more(i) holds for its i-th request. It
// returns the first client error.
func closedLoop(more func(i int) bool, one func(c int) error) error {
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; more(i); i++ {
				if err := one(c); err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// perClient and until are closedLoop's two stopping rules: a fixed request
// count per client (warm-up), or a deadline (the timed phase).
func perClient(n int) func(int) bool { return func(i int) bool { return i < n } }

func until(stop time.Time) func(int) bool {
	return func(int) bool { return time.Now().Before(stop) }
}

// outcome is a program's observed architectural result.
type outcome struct {
	exit   uint64
	output string
}

// drawProgram synthesizes programs of the given shape from rng until one's
// reference run ends within maxInsts instructions, and returns its source,
// its compiled and annotated program, and its reference outcome. A few
// programs of every shape run hundreds of times longer than the rest (see
// serveMaxInsts); redrawing them keeps every seed's inputs about as costly
// as any other's.
func drawProgram(ctx context.Context, rng *rand.Rand, cfg workloads.SynthConfig, maxInsts uint64, name string) (string, *isa.Program, outcome, error) {
	for {
		cfg.Seed = rng.Uint64()
		src := workloads.Synthesize(cfg).Source(workloads.SizeTest)
		prog, _, err := engine.Compile(name, src, true)
		if err != nil {
			return "", nil, outcome{}, err
		}
		r, err := engine.Reference(ctx, prog, ref.Limits{MaxInsts: maxInsts})
		if simerr.KindOf(err) == simerr.KindInstLimit {
			continue
		}
		if err != nil {
			return "", nil, outcome{}, err
		}
		return src, prog, outcome{r.ExitCode, r.Output}, nil
	}
}

// outcomes remembers the first result seen for each program and counts
// later results that disagree with it; check compares the first against the
// reference model's.
type outcomes[K comparable] struct {
	mu    sync.Mutex
	first map[K]outcome
	bad   int
}

func (o *outcomes[K]) note(k K, got outcome) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.first == nil {
		o.first = map[K]outcome{}
	}
	if prev, ok := o.first[k]; !ok {
		o.first[k] = got
	} else if prev != got {
		o.bad++
	}
}

// check compares every program's first result with its reference outcome
// and returns the number of disagreements.
func (o *outcomes[K]) check(want func(K) outcome) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	bad := o.bad
	for k, got := range o.first {
		if got != want(k) {
			bad++
		}
	}
	return bad
}

// ---------------------------------------------------------- serve-source

// typicalShape is the LevC program shape serve-source posts: a few helpers,
// shallow nesting, 20 outer iterations over 64-entry arrays.
var typicalShape = workloads.SynthConfig{Funcs: 3, MaxDepth: 3, OuterIters: 20, ArrayLen: 64, BranchEntropy: 0.5}

// serveMaxInsts bounds the reference instruction count of a serve-source
// program. In the typical shape about one program in 25 runs longer, up to
// 2M instructions against a median of 3500. Left in, a seed's 1024-program
// pool drew a different handful of them each time, and its mean instruction
// count ranged from 5900 to 9000 over seeds 1-10; redrawn, from 4450 to 4800.
const serveMaxInsts = 20_000

// serveSource posts seeded synthesized LevC programs to /v1/simulate from
// two closed-loop clients. Exactly one request in four resends one of the
// client's last sixteen, which fixes the result-cache hit ratio near 25%.
type serveSource struct {
	*httpRig
	warmN int
	pool  [clients][]sourceEntry
	cl    [clients]sourceClient
	seen  outcomes[[2]int] // (client, pool index)
}

type sourceEntry struct {
	body []byte
	want outcome
}

// sourceClient is one client's request sequence. Fresh requests walk the
// pool in order; the pool is long enough that an entry has left the server's
// 256-entry result cache before the client comes back to it.
type sourceClient struct {
	rng    *rand.Rand
	n      int
	fresh  int
	recent []int
}

func (s *sourceClient) next(poolLen int) int {
	s.n++
	if s.n%4 == 0 && len(s.recent) > 0 {
		return s.recent[s.rng.Intn(len(s.recent))]
	}
	i := s.fresh % poolLen
	s.fresh++
	s.recent = append(s.recent, i)
	if len(s.recent) > 16 {
		s.recent = s.recent[1:]
	}
	return i
}

// prepareServeSource synthesizes and encodes every client's request pool,
// with each program's reference outcome.
func prepareServeSource(ctx context.Context, o *options) (instance, error) {
	l := &serveSource{warmN: o.sizes.serveWarm}
	for c := 0; c < clients; c++ {
		rng := rand.New(rand.NewSource(int64(o.seed)*7919 + int64(c)))
		l.cl[c] = sourceClient{rng: rand.New(rand.NewSource(rng.Int63()))}
		for k := 0; k < o.sizes.servePool; k++ {
			name := fmt.Sprintf("c%d-%d", c, k)
			src, _, want, err := drawProgram(ctx, rng, typicalShape, serveMaxInsts, name)
			if err != nil {
				return nil, err
			}
			body, err := json.Marshal(serve.SimRequest{
				Name: name, Source: src, Policy: servePolicies[rng.Intn(len(servePolicies))],
			})
			if err != nil {
				return nil, err
			}
			l.pool[c] = append(l.pool[c], sourceEntry{body: body, want: want})
		}
	}
	return l, nil
}

// start starts levserve and its loopback listener.
func (l *serveSource) start(context.Context) error {
	rig, err := newHTTPRig(serve.Config{})
	l.httpRig = rig
	return err
}

func (l *serveSource) stop() { l.httpRig.close() }

func (l *serveSource) one(c int, rec *recorder, tr *tracer) error {
	i := l.cl[c].next(len(l.pool[c]))
	status, reply, t0, t1, err := l.post(tr, "client.request", "/v1/simulate", l.pool[c][i].body)
	if err != nil {
		return err
	}
	failed := 0
	var r serve.SimResponse
	if status != http.StatusOK || json.Unmarshal(reply, &r) != nil {
		failed = 1
	} else {
		l.seen.note([2]int{c, i}, outcome{r.Exit, r.Output})
	}
	if rec != nil {
		rec.add(t0, t1, 1, failed)
	} else if failed > 0 {
		return fmt.Errorf("warm-up request: status %d: %s", status, reply)
	}
	return nil
}

func (l *serveSource) warm(context.Context) error {
	return closedLoop(perClient((l.warmN+clients-1)/clients), func(c int) error { return l.one(c, nil, nil) })
}

func (l *serveSource) measure(_ context.Context, stop time.Time, rec *recorder, tr *tracer) error {
	l.tr.Store(tr)
	defer l.tr.Store(nil)
	return closedLoop(until(stop), func(c int) error { return rec.op(func() error { return l.one(c, rec, tr) }) })
}

func (l *serveSource) check() int {
	return l.seen.check(func(k [2]int) outcome { return l.pool[k[0]][k[1]].want })
}

func (l *serveSource) stages() []stage {
	return engineStages(l.srv.Metrics(), "", "serve.handler")
}

func (l *serveSource) layerMetrics() map[string]float64 {
	st := l.srv.Stats()
	return map[string]float64{
		"serve.cache_hit_ratio": ratio(st.CacheHits, st.CacheHits+st.CacheMisses),
		"serve.rejected":        float64(st.Rejected),
	}
}

func (l *serveSource) notes(time.Duration) []string {
	st := l.srv.Stats()
	return []string{fmt.Sprintf("serve result cache: %d hits of %d lookups (%.3g), whole run", st.CacheHits, st.CacheHits+st.CacheMisses,
		ratio(st.CacheHits, st.CacheHits+st.CacheMisses))}
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// ---------------------------------------------------------- batch-remote

// batchCell is one cell of a batch: a program from the client's pool, run
// under a policy with a ROB-size override — a parameter-sweep point.
type batchCell struct {
	prog   int
	rob    int
	policy string
}

// batchRemote posts 16-cell batches to /v1/batch from two closed-loop
// clients. levserve dispatches the cells over loopback TCP to two
// in-process worker daemons. Each batch has 12 distinct cells plus 4 that
// duplicate one of them (single-flight), and 10% of all cells repeat a cell
// of the client's previous batch (result-cache hits). Every other cell is a
// fresh (program, ROB size) pair, so it misses every cache.
type batchRemote struct {
	*httpRig
	daemonsCancel context.CancelFunc
	daemonsDone   []chan error
	dreg          *obs.Registry // the worker daemons' stage histograms
	warmN         int
	imgs          [clients][][]byte
	wants         [clients][]outcome
	cl            [clients]batchClient
	seen          outcomes[[2]int] // (client, program)
}

type batchClient struct {
	rng     *rand.Rand
	batches int
	fresh   int
	prev    []batchCell
}

const (
	batchCells   = 16
	batchUnique  = 12
	batchRepeats = 0.10 // share of cells repeated from the previous batch
)

// batchQueueDepth admits both clients' batches at once. dispatch's default
// (8 × workers = 16 on two remote workers) sheds any batch that arrives
// while another 16-cell batch is pending.
const batchQueueDepth = 64

func (s *batchClient) next(poolLen int) []batchCell {
	b := s.batches
	s.batches++
	repeats := int(float64(b+1)*batchCells*batchRepeats) - int(float64(b)*batchCells*batchRepeats)
	repeats = min(repeats, len(s.prev))
	cells := make([]batchCell, 0, batchCells)
	for _, j := range s.rng.Perm(len(s.prev))[:repeats] {
		cells = append(cells, s.prev[j])
	}
	for len(cells) < batchUnique {
		k := s.fresh
		s.fresh++
		cells = append(cells, batchCell{prog: k % poolLen, rob: 128 + (k/poolLen)%128,
			policy: servePolicies[s.rng.Intn(len(servePolicies))]})
	}
	s.prev = cells
	for len(cells) < batchCells {
		cells = append(cells, cells[s.rng.Intn(batchUnique)])
	}
	return cells
}

// cellShape is the tiny program shape of a batch cell, and cellMaxInsts
// bounds its reference instruction count as serveMaxInsts does serve-source's:
// about one program in 25 runs longer, up to 10600 instructions against a
// median of 660.
var cellShape = workloads.SynthConfig{Funcs: 1, MaxDepth: 2, OuterIters: 4, ArrayLen: 16, BranchEntropy: 0.5}

const cellMaxInsts = 2000

// prepareBatchRemote compiles every client's cell programs to binary
// images, with each program's reference outcome.
func prepareBatchRemote(ctx context.Context, o *options) (instance, error) {
	l := &batchRemote{dreg: obs.NewRegistry(), warmN: o.sizes.batchWarm}
	for c := 0; c < clients; c++ {
		rng := rand.New(rand.NewSource(int64(o.seed)*104729 + int64(c)))
		l.cl[c] = batchClient{rng: rand.New(rand.NewSource(rng.Int63()))}
		for k := 0; k < o.sizes.batchPool; k++ {
			_, prog, want, err := drawProgram(ctx, rng, cellShape, cellMaxInsts, fmt.Sprintf("b%d-%d", c, k))
			if err != nil {
				return nil, err
			}
			img, err := prog.MarshalBinary()
			if err != nil {
				return nil, err
			}
			l.imgs[c] = append(l.imgs[c], img)
			l.wants[c] = append(l.wants[c], want)
		}
	}
	return l, nil
}

// start starts both worker daemons on loopback listeners, then levserve,
// which dials them.
func (l *batchRemote) start(context.Context) error {
	dctx, cancel := context.WithCancel(obs.WithRegistry(context.Background(), l.dreg))
	l.daemonsCancel = cancel
	l.daemonsDone = nil
	var addrs []string
	for i := 0; i < 2; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			l.stop()
			return err
		}
		done := make(chan error, 1)
		l.daemonsDone = append(l.daemonsDone, done)
		go func() { done <- dispatch.ListenWorkers(dctx, ln, dispatch.ListenOptions{}) }()
		addrs = append(addrs, ln.Addr().String())
	}
	rig, err := newHTTPRig(serve.Config{Remote: addrs, Dispatch: &dispatch.Config{QueueDepth: batchQueueDepth}})
	l.httpRig = rig
	if err != nil {
		l.stop()
	}
	return err
}

func (l *batchRemote) stop() {
	if l.httpRig != nil {
		l.httpRig.close()
	}
	l.daemonsCancel()
	for _, done := range l.daemonsDone {
		<-done
	}
}

func (l *batchRemote) one(c int, rec *recorder, tr *tracer) error {
	cells := l.cl[c].next(len(l.imgs[c]))
	req := serve.BatchRequest{Cells: make([]serve.SimRequest, len(cells))}
	for i, cell := range cells {
		req.Cells[i] = serve.SimRequest{Name: fmt.Sprintf("b%d-%d", c, cell.prog), Binary: l.imgs[c][cell.prog],
			Policy: cell.policy, ROB: cell.rob}
	}
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	status, reply, t0, t1, err := l.post(tr, "client.batch", "/v1/batch", body)
	if err != nil {
		return err
	}
	failed := l.parse(c, cells, status, reply)
	if rec != nil {
		rec.add(t0, t1, len(cells), failed)
	} else if failed > 0 {
		return fmt.Errorf("warm-up batch: status %d, %d of %d cells failed", status, failed, len(cells))
	}
	return nil
}

// parse reads the NDJSON reply, records every cell's result, and returns
// the number of failed cells: cells reporting an error, plus every cell of
// a batch whose trailer is missing or does not say all 16 completed. The
// trailer is the last line; a truncated stream's last line is a cell, which
// reads as a trailer without "done".
func (l *batchRemote) parse(c int, cells []batchCell, status int, reply []byte) int {
	lines := bytes.Split(bytes.TrimSpace(reply), []byte("\n"))
	var tr serve.BatchTrailer
	if status != http.StatusOK || json.Unmarshal(lines[len(lines)-1], &tr) != nil ||
		!tr.Done || tr.Completed != len(cells) || tr.Failed != 0 {
		return len(cells)
	}
	failed := 0
	for _, line := range lines[:len(lines)-1] {
		var cell serve.BatchCellResult
		if err := json.Unmarshal(line, &cell); err != nil {
			return len(cells)
		}
		if cell.Error != nil || cell.Index < 0 || cell.Index >= len(cells) {
			failed++
			continue
		}
		l.seen.note([2]int{c, cells[cell.Index].prog}, outcome{cell.Exit, cell.Output})
	}
	return failed
}

func (l *batchRemote) warm(context.Context) error {
	return closedLoop(perClient(max(l.warmN/clients, 1)), func(c int) error { return l.one(c, nil, nil) })
}

func (l *batchRemote) measure(_ context.Context, stop time.Time, rec *recorder, tr *tracer) error {
	l.tr.Store(tr)
	defer l.tr.Store(nil)
	return closedLoop(until(stop), func(c int) error { return rec.op(func() error { return l.one(c, rec, tr) }) })
}

func (l *batchRemote) check() int {
	return l.seen.check(func(k [2]int) outcome { return l.wants[k[0]][k[1]] })
}

func (l *batchRemote) stages() []stage {
	return append(engineStages(l.srv.Metrics(), "serve:", "serve.handler"),
		engineStages(l.dreg, "worker:", "serve.handler")...)
}

func (l *batchRemote) layerMetrics() map[string]float64 {
	d := l.srv.Stats().Dispatch
	return map[string]float64{
		"dispatch.dedup_hits":      float64(d.DedupHits),
		"dispatch.cache_hit_ratio": ratio(d.Cache.Hits, d.Cache.Hits+d.Cache.Misses),
		"dispatch.retries":         float64(d.Retries),
		"dispatch.shed":            float64(d.Shed),
	}
}

func (l *batchRemote) notes(time.Duration) []string {
	d := l.srv.Stats().Dispatch
	return []string{fmt.Sprintf("dispatch: %d cache hits of %d lookups, %d single-flight dedup hits, %d retries, %d shed, whole run",
		d.Cache.Hits, d.Cache.Hits+d.Cache.Misses, d.DedupHits, d.Retries, d.Shed)}
}
