package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"levioso/internal/dispatch"
	"levioso/internal/obs"
)

// getBody fetches a path and returns the body and response.
func getBody(t *testing.T, url string) (string, *http.Response) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b), resp
}

// TestServeMetricsSmoke is the make ci observability smoke: boot a server,
// run one simulate, scrape /metrics, and fail on unparseable exposition
// lines or missing required metric families. This is the same contract an
// external Prometheus scraper relies on.
func TestServeMetricsSmoke(t *testing.T) {
	_, ts := startServer(t, Config{})

	got, resp := postSimulate(t, ts.URL, SimRequest{Source: histSrc, Policy: "levioso"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate: status %d", resp.StatusCode)
	}
	if got.SchemaVersion != SchemaVersion {
		t.Fatalf("schema_version %d, want %d", got.SchemaVersion, SchemaVersion)
	}
	if resp.Header.Get("X-Request-ID") == "" {
		t.Fatal("response missing X-Request-ID")
	}

	body, mresp := getBody(t, ts.URL+"/metrics")
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: status %d", mresp.StatusCode)
	}
	if ct := mresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	types, err := obs.ValidateProm(strings.NewReader(body))
	if err != nil {
		t.Fatalf("unparseable exposition:\n%v\n---\n%s", err, body)
	}
	// The families a dashboard is built on: per-route serve counters, the
	// coordinator's cache counters (the simulate above ran through it), and
	// the per-stage engine histograms (it must have landed
	// compile/assemble/annotate/simulate spans in this server's registry).
	required := map[string]string{
		"levserve_requests_total":     "counter",
		"levserve_request_seconds":    "histogram",
		"levserve_inflight_requests":  "gauge",
		"dispatch_cache_misses_total": "counter",
		"engine_stage_seconds":        "histogram",
		"engine_runs_total":           "counter",
	}
	for fam, kind := range required {
		if types[fam] != kind {
			t.Errorf("family %s: type %q, want %q\n%s", fam, types[fam], kind, body)
		}
	}
	for _, series := range []string{
		`engine_stage_seconds_count{stage="simulate",outcome="ok"}`,
		`engine_stage_seconds_count{stage="compile",outcome="ok"}`,
		`levserve_requests_total{route="simulate"}`,
	} {
		if !strings.Contains(body, series) {
			t.Errorf("missing series %s in exposition:\n%s", series, body)
		}
	}
}

// TestServeErrorEnvelope asserts every failure status renders the unified
// {"error":{kind,message,retryable}} envelope with a sensible kind.
func TestServeErrorEnvelope(t *testing.T) {
	_, ts := startServer(t, Config{MaxBody: 16 << 10})

	post := func(body []byte) (*http.Response, ErrorEnvelope) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var env ErrorEnvelope
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatalf("status %d: response is not an error envelope: %v", resp.StatusCode, err)
		}
		return resp, env
	}
	mustJSON := func(sr SimRequest) []byte {
		b, err := json.Marshal(sr)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	cases := []struct {
		name       string
		body       []byte
		wantStatus int
		wantKind   string
		retryable  bool
	}{
		{"malformed json", []byte("{nope"), http.StatusBadRequest, "build", false},
		{"unknown field", []byte(`{"polcy":"levioso"}`), http.StatusBadRequest, "build", false},
		{"unknown policy", mustJSON(SimRequest{Source: histSrc, Policy: "nonesuch"}), http.StatusBadRequest, "build", false},
		{"no input", mustJSON(SimRequest{}), http.StatusBadRequest, "build", false},
		{"negative deadline", mustJSON(SimRequest{Source: histSrc, DeadlineMS: -5}), http.StatusBadRequest, "build", false},
		{"body too large", mustJSON(SimRequest{Source: strings.Repeat("//x\n", 16<<10) + histSrc}), http.StatusRequestEntityTooLarge, "build", false},
		{"cycle limit", mustJSON(SimRequest{Source: spinSrc, MaxCycles: 1000}), http.StatusUnprocessableEntity, "cycle-limit", false},
		{"deadline", mustJSON(SimRequest{Source: spinSrc, MaxCycles: 2_000_000_000, DeadlineMS: 20}), http.StatusGatewayTimeout, "deadline", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, env := post(tc.body)
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status %d, want %d (%+v)", resp.StatusCode, tc.wantStatus, env)
			}
			if env.Error.Kind != tc.wantKind {
				t.Errorf("kind %q, want %q (%+v)", env.Error.Kind, tc.wantKind, env)
			}
			if env.Error.Retryable != tc.retryable {
				t.Errorf("retryable %v, want %v (%+v)", env.Error.Retryable, tc.retryable, env)
			}
			if env.Error.Message == "" {
				t.Error("empty error message")
			}
			if got := resp.Header.Get("X-Error-Kind"); got != tc.wantKind {
				t.Errorf("X-Error-Kind %q, want %q", got, tc.wantKind)
			}
		})
	}

	// The unknown-field rejection must name the accepted fields — the whole
	// point is telling the client what to fix.
	resp, env := post([]byte(`{"polcy":"levioso"}`))
	resp.Body.Close()
	if !strings.Contains(env.Error.Message, "polcy") || !strings.Contains(env.Error.Message, "policy") {
		t.Errorf("unknown-field message unhelpful: %q", env.Error.Message)
	}
}

// TestServeQueueGiveUp503 pins down the 503 path: with one worker occupied
// by a long simulation, a short-deadline request must give up while queueing
// with a retryable deadline-kind envelope.
func TestServeQueueGiveUp503(t *testing.T) {
	_, ts := startServer(t, Config{Dispatch: &dispatch.Config{Workers: 1, CacheEntries: -1}})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Occupies the only worker slot until its own deadline fires.
		postSimulate(t, ts.URL, SimRequest{Source: spinSrc, MaxCycles: 2_000_000_000, DeadlineMS: 2000})
	}()
	time.Sleep(200 * time.Millisecond) // let the spinner claim the slot

	body, _ := json.Marshal(SimRequest{Source: histSrc, DeadlineMS: 100})
	resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 (%+v)", resp.StatusCode, env)
	}
	if env.Error.Kind != "deadline" || !env.Error.Retryable {
		t.Fatalf("503 envelope should be retryable deadline kind: %+v", env)
	}
	wg.Wait()
}

// TestServeVersion covers the version endpoint's stability contract.
func TestServeVersion(t *testing.T) {
	_, ts := startServer(t, Config{})
	body, resp := getBody(t, ts.URL+"/v1/version")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var v VersionInfo
	if err := json.Unmarshal([]byte(body), &v); err != nil {
		t.Fatal(err)
	}
	if v.SchemaVersion != SchemaVersion {
		t.Fatalf("schema_version %d, want %d", v.SchemaVersion, SchemaVersion)
	}
	if v.GoVersion == "" {
		t.Fatal("missing go_version")
	}
}

// TestServeAccessLog asserts the structured access log: one JSON line per
// request with the documented fields, and the request ID matching the
// X-Request-ID response header.
func TestServeAccessLog(t *testing.T) {
	var buf syncBuffer
	_, ts := startServer(t, Config{AccessLog: &buf})

	_, resp := postSimulate(t, ts.URL, SimRequest{Source: histSrc})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	id := resp.Header.Get("X-Request-ID")

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("want 1 access-log line, got %d:\n%s", len(lines), buf.String())
	}
	var rec accessRecord
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("access-log line is not JSON: %v\n%s", err, lines[0])
	}
	if rec.ID != id {
		t.Errorf("log id %q != header id %q", rec.ID, id)
	}
	if rec.Method != "POST" || rec.Path != "/v1/simulate" || rec.Route != "simulate" || rec.Status != 200 {
		t.Errorf("access record fields wrong: %+v", rec)
	}
	if _, err := time.Parse(time.RFC3339, rec.Time); err != nil {
		t.Errorf("timestamp not RFC3339: %q", rec.Time)
	}
}

// TestServePprofGate asserts the pprof mounts are opt-in.
func TestServePprofGate(t *testing.T) {
	_, off := startServer(t, Config{})
	if _, resp := getBody(t, off.URL+"/debug/pprof/"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof served without the flag: status %d", resp.StatusCode)
	}
	_, on := startServer(t, Config{EnablePprof: true})
	if _, resp := getBody(t, on.URL+"/debug/pprof/"); resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index with the flag: status %d", resp.StatusCode)
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer (the handler writes from
// request goroutines).
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
