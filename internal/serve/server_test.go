package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"levioso/internal/dispatch"
	"levioso/internal/engine"
	"levioso/internal/secure"
)

const histSrc = `
var h[16];
func main() {
	var i;
	var s = 7;
	for (i = 0; i < 300; i = i + 1) {
		s = s * 1103515245 + 12345;
		var k = (s >> 16) & 15;
		if (h[k] < 9) { h[k] = h[k] + 1; }
	}
	var acc = 0;
	for (i = 0; i < 16; i = i + 1) { acc = acc + h[i]; }
	print(acc);
	return acc & 255;
}`

const spinSrc = `
func main() {
	var i;
	var s = 1;
	for (i = 0; i < 200000000; i = i + 1) { s = s + i; }
	return 0;
}`

func startServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postSimulate(t *testing.T, url string, req SimRequest) (SimResponse, *http.Response) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/simulate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out SimResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return out, resp
}

// TestServeSmoke is the make ci smoke test: one simulate request completes,
// an identical second request is served from the cache with identical
// results, and the handler shuts down cleanly with the test server.
func TestServeSmoke(t *testing.T) {
	s, ts := startServer(t, Config{})
	req := SimRequest{Name: "hist.lc", Source: histSrc, Policy: "levioso", Verify: true}

	first, resp := postSimulate(t, ts.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first request: status %d", resp.StatusCode)
	}
	if first.Cached {
		t.Fatal("first request reported cached")
	}
	second, resp := postSimulate(t, ts.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second request: status %d", resp.StatusCode)
	}
	if !second.Cached {
		t.Fatal("identical second request was not a cache hit")
	}
	if first.Exit != second.Exit || first.Output != second.Output || first.Stats != second.Stats {
		t.Fatalf("cached result differs:\n first=%+v\n second=%+v", first, second)
	}
	if st := s.Stats(); st.CacheHits != 1 || st.Requests != 2 {
		t.Fatalf("server counters wrong: %+v", st)
	}
}

// TestServeConcurrentMatchesEngine fans N parallel simulate requests across
// policies and checks every response against a direct engine.Run of the same
// request — the daemon is a transport, not a different pipeline.
func TestServeConcurrentMatchesEngine(t *testing.T) {
	_, ts := startServer(t, Config{Dispatch: &dispatch.Config{Workers: 4, CacheEntries: -1}})
	policies := []string{"unsafe", "fence", "delay", "invisible", "levioso", "levioso-ghost", "taint", "levioso-ctrl"}

	var wg sync.WaitGroup
	errs := make(chan error, len(policies))
	for _, pol := range policies {
		wg.Add(1)
		go func(pol string) {
			defer wg.Done()
			got, resp := postSimulate(t, ts.URL, SimRequest{Source: histSrc, Policy: pol})
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("%s: status %d", pol, resp.StatusCode)
				return
			}
			want, err := engine.Run(context.Background(), engine.Request{Source: histSrc, Overrides: engine.Overrides{Policy: pol}})
			if err != nil {
				errs <- err
				return
			}
			if got.Exit != want.ExitCode || got.Output != want.Output || got.Stats != want.Stats {
				errs <- fmt.Errorf("%s: served result differs from engine.Run:\n got=%+v\n want=%+v", pol, got, want)
			}
		}(pol)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestServeClientCancel proves an in-flight request is cancelled by client
// disconnect without wedging the worker pool: with a single worker, a
// cancelled long-running request must still leave the pool usable for the
// next request.
func TestServeClientCancel(t *testing.T) {
	s, ts := startServer(t, Config{Dispatch: &dispatch.Config{Workers: 1, CacheEntries: -1}})

	ctx, cancel := context.WithCancel(context.Background())
	body, _ := json.Marshal(SimRequest{Source: spinSrc, MaxCycles: 2_000_000_000})
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/simulate", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(hreq)
		if err == nil {
			resp.Body.Close()
		}
		done <- err
	}()
	// Let the simulation start, then hang up.
	time.Sleep(100 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err == nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("expected cancelled client request, got %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled request did not return")
	}

	// The single worker slot must be free again: a quick request completes.
	fastDone := make(chan struct{})
	go func() {
		defer close(fastDone)
		got, resp := postSimulate(t, ts.URL, SimRequest{Source: histSrc, Policy: "unsafe"})
		if resp.StatusCode != http.StatusOK || got.Stats.Committed == 0 {
			t.Errorf("post-cancel request failed: status=%d res=%+v", resp.StatusCode, got)
		}
	}()
	select {
	case <-fastDone:
	case <-time.After(30 * time.Second):
		t.Fatal("worker pool wedged after client cancellation")
	}
	if st := s.Stats(); st.InFlight != 0 {
		t.Fatalf("in-flight count leaked: %+v", st)
	}
}

// TestServeWorkloadAndRef runs an embedded suite workload and a reference-
// model request through the daemon.
func TestServeWorkloadAndRef(t *testing.T) {
	_, ts := startServer(t, Config{})
	got, resp := postSimulate(t, ts.URL, SimRequest{Workload: "pchase", Size: "test", Policy: "levioso"})
	if resp.StatusCode != http.StatusOK || got.Stats.Committed == 0 {
		t.Fatalf("workload request failed: status=%d res=%+v", resp.StatusCode, got)
	}
	rres, resp := postSimulate(t, ts.URL, SimRequest{Source: histSrc, Ref: true})
	if resp.StatusCode != http.StatusOK || !rres.Ref || rres.Insts == 0 {
		t.Fatalf("ref request failed: status=%d res=%+v", resp.StatusCode, rres)
	}
}

// TestServeBadRequests checks the error taxonomy maps onto HTTP statuses.
func TestServeBadRequests(t *testing.T) {
	_, ts := startServer(t, Config{})
	cases := []struct {
		name string
		req  SimRequest
		want int
	}{
		{"no input", SimRequest{}, http.StatusBadRequest},
		{"two inputs", SimRequest{Source: histSrc, Workload: "pchase"}, http.StatusBadRequest},
		{"unknown workload", SimRequest{Workload: "nonesuch"}, http.StatusBadRequest},
		{"unknown policy", SimRequest{Source: histSrc, Policy: "nonesuch"}, http.StatusBadRequest},
		{"bad source", SimRequest{Source: "func main( {"}, http.StatusBadRequest},
		{"deadline", SimRequest{Source: spinSrc, MaxCycles: 2_000_000_000, DeadlineMS: 20}, http.StatusGatewayTimeout},
	}
	for _, tc := range cases {
		_, resp := postSimulate(t, ts.URL, tc.req)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
	// Malformed JSON body.
	resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: status %d", resp.StatusCode)
	}
}

// TestServePoliciesDescriptors checks GET /v1/policies against the registry:
// every family appears as a full descriptor (summary, threat model, coverage),
// parameterized families carry their parameter schema, and the sweep list
// matches the registry's.
func TestServePoliciesDescriptors(t *testing.T) {
	_, ts := startServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/policies")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		SchemaVersion int          `json:"schema_version"`
		Policies      []PolicyInfo `json:"policies"`
		Eval          []string     `json:"eval"`
		Sweep         []string     `json:"sweep"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.SchemaVersion != SchemaVersion {
		t.Errorf("schema_version %d, want %d", body.SchemaVersion, SchemaVersion)
	}
	byName := make(map[string]PolicyInfo)
	for _, p := range body.Policies {
		byName[p.Name] = p
	}
	for i, name := range secure.Names() {
		p, ok := byName[name]
		if !ok {
			t.Errorf("policy %q missing from /v1/policies", name)
			continue
		}
		if body.Policies[i].Name != name {
			t.Errorf("descriptor %d is %q, want %q (registry order)", i, body.Policies[i].Name, name)
		}
		if p.Summary == "" || p.ThreatModel == "" || p.Coverage == "" {
			t.Errorf("policy %q descriptor incomplete: %+v", name, p)
		}
	}
	if len(byName["tunable"].Params) == 0 {
		t.Error("tunable descriptor carries no parameter schema")
	}
	if want := secure.SweepSpecs(); !slices.Equal(body.Sweep, want) {
		t.Errorf("sweep = %v, want %v", body.Sweep, want)
	}
	if want := secure.EvalNames(); !slices.Equal(body.Eval, want) {
		t.Errorf("eval = %v, want %v", body.Eval, want)
	}
}

// TestServePolicyParams exercises the params field: an out-of-band level
// selects the same configuration as the inline spec (identical stats), and an
// invalid value is a 400.
func TestServePolicyParams(t *testing.T) {
	_, ts := startServer(t, Config{Dispatch: &dispatch.Config{CacheEntries: -1}})
	inline, resp := postSimulate(t, ts.URL, SimRequest{Source: histSrc, Policy: "tunable:level=ctrl"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("inline spec: status %d", resp.StatusCode)
	}
	viaParams, resp := postSimulate(t, ts.URL,
		SimRequest{Source: histSrc, Policy: "tunable", Params: map[string]string{"level": "ctrl"}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("params: status %d", resp.StatusCode)
	}
	if inline.Stats != viaParams.Stats {
		t.Errorf("params selected a different configuration:\n inline=%+v\n params=%+v",
			inline.Stats, viaParams.Stats)
	}
	_, resp = postSimulate(t, ts.URL,
		SimRequest{Source: histSrc, Policy: "tunable", Params: map[string]string{"level": "extreme"}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid level: status %d, want 400", resp.StatusCode)
	}
}

// TestServeMetaEndpoints covers the discovery endpoints.
func TestServeMetaEndpoints(t *testing.T) {
	_, ts := startServer(t, Config{})
	for _, path := range []string{"/healthz", "/v1/policies", "/v1/workloads", "/v1/stats"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d", path, resp.StatusCode)
		}
	}
}

// TestLRUEviction: simulate results live in the coordinator's LRU, sized by
// Dispatch.CacheEntries — the least recently used entry is the one evicted,
// and a negative capacity disables caching.
func TestLRUEviction(t *testing.T) {
	s, ts := startServer(t, Config{Dispatch: &dispatch.Config{Workers: 1, CacheEntries: 2}})
	cached := func(policy string) bool {
		t.Helper()
		got, resp := postSimulate(t, ts.URL, SimRequest{Source: histSrc, Policy: policy})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", policy, resp.StatusCode)
		}
		return got.Cached
	}
	cached("unsafe")
	cached("fence")
	if !cached("unsafe") {
		t.Fatal("unsafe missing")
	}
	cached("delay") // evicts fence (unsafe was just used)
	if st := s.Stats(); st.CacheEntries != 2 || st.CacheEvictions != 1 {
		t.Fatalf("entries=%d evictions=%d, want 2 and 1", st.CacheEntries, st.CacheEvictions)
	}
	if !cached("unsafe") {
		t.Fatal("unsafe should have survived")
	}
	if cached("fence") {
		t.Fatal("fence should have been evicted")
	}

	_, off := startServer(t, Config{Dispatch: &dispatch.Config{CacheEntries: -1}})
	for i := 0; i < 2; i++ {
		if got, _ := postSimulate(t, off.URL, SimRequest{Source: histSrc}); got.Cached {
			t.Fatal("negative capacity should disable the cache")
		}
	}
}

// An oversized request body must come back as a typed 413, not a generic
// 400: clients distinguish "shrink your program" from "fix your request".
func TestServeBodyTooLarge(t *testing.T) {
	_, ts := startServer(t, Config{MaxBody: 512})
	big := SimRequest{Source: "// " + strings.Repeat("x", 4096) + "\n" + histSrc}
	_, resp := postSimulate(t, ts.URL, big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want %d", resp.StatusCode, http.StatusRequestEntityTooLarge)
	}
	// A request under the cap on the same server still works.
	small, resp := postSimulate(t, ts.URL, SimRequest{Source: "func main() { print(7); return 0; }"})
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(small.Output) != "7" {
		t.Fatalf("small request after 413: status %d output %q", resp.StatusCode, small.Output)
	}
}

// TestServeSimulateSingleFlight: N concurrent identical simulate requests
// run one simulation — the coordinator's single-flight coalesces the
// duplicates onto the leader's run — and every reply carries its result.
func TestServeSimulateSingleFlight(t *testing.T) {
	const n = 6
	s, ts := startServer(t, Config{Dispatch: &dispatch.Config{Workers: n}})
	// Long enough (hundreds of milliseconds) that every duplicate arrives
	// while the leader is still simulating.
	slow := strings.Replace(spinSrc, "200000000", "300000", 1)
	replies := make([]SimResponse, n)
	var wg sync.WaitGroup
	for i := range replies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, resp := postSimulate(t, ts.URL, SimRequest{Source: slow, Policy: "levioso"})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d", i, resp.StatusCode)
			}
			replies[i] = got
		}(i)
	}
	wg.Wait()
	fresh := 0
	for i, r := range replies {
		if !r.Cached {
			fresh++
		}
		if r.Exit != replies[0].Exit || r.Output != replies[0].Output || r.Stats != replies[0].Stats {
			t.Fatalf("reply %d differs from reply 0:\n got=%+v\nwant=%+v", i, r, replies[0])
		}
	}
	if fresh != 1 {
		t.Errorf("%d replies were not coalesced, want exactly the leader's", fresh)
	}
	body, _ := getBody(t, ts.URL+"/metrics")
	for _, series := range []string{
		fmt.Sprintf("dispatch_dedup_hits_total %d\n", n-1),
		"engine_runs_total{outcome=\"ok\"} 1\n",
	} {
		if !strings.Contains(body, series) {
			t.Errorf("exposition lacks %q:\n%s", series, body)
		}
	}
	if st := s.Stats(); st.Dispatch.DedupHits != n-1 || st.InFlight != 0 {
		t.Errorf("stats: dedup_hits=%d in_flight=%d, want %d and 0", st.Dispatch.DedupHits, st.InFlight, n-1)
	}
}

// TestServeRefOverPipe: a reference-model simulate request dispatched to a
// wire-protocol worker (the ref flag and instruction count round-trip the
// frames) answers byte for byte what an in-process worker answers, apart
// from the wall-clock elapsed_ms.
func TestServeRefOverPipe(t *testing.T) {
	elapsed := regexp.MustCompile(`"elapsed_ms":\d+`)
	reply := func(cfg Config) []byte {
		t.Helper()
		_, ts := startServer(t, cfg)
		body, _ := json.Marshal(SimRequest{Name: "hist.lc", Source: histSrc, Ref: true})
		resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, out)
		}
		return elapsed.ReplaceAll(out, []byte(`"elapsed_ms":0`))
	}
	inproc := reply(Config{})
	pipe := reply(Config{Dispatch: &dispatch.Config{Workers: 1, Spawn: dispatch.Pipe()}})
	if !bytes.Equal(inproc, pipe) {
		t.Fatalf("pipe reply differs from inproc:\n inproc=%s\n   pipe=%s", inproc, pipe)
	}
	var got SimResponse
	if err := json.Unmarshal(pipe, &got); err != nil {
		t.Fatal(err)
	}
	if !got.Ref || got.Insts == 0 || got.Stats.Cycles != 0 {
		t.Fatalf("not a reference-model reply: %s", pipe)
	}
}
