package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"levioso/internal/dispatch"
	"levioso/internal/obs"
)

// postFuzz posts a raw body to /v1/fuzz and decodes the status reply when
// the request was accepted.
func postFuzz(t *testing.T, url string, body []byte) (FuzzStatus, *http.Response) {
	t.Helper()
	resp, err := http.Post(url+"/v1/fuzz", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st FuzzStatus
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return st, resp
}

// waitFuzzDone polls GET /v1/fuzz/{id} until the campaign leaves "running".
func waitFuzzDone(t *testing.T, url, id string) FuzzStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		body, resp := getBody(t, url+"/v1/fuzz/"+id)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status poll: HTTP %d\n%s", resp.StatusCode, body)
		}
		var st FuzzStatus
		if err := json.Unmarshal([]byte(body), &st); err != nil {
			t.Fatal(err)
		}
		if st.Status != "running" {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("campaign did not finish")
	return FuzzStatus{}
}

// fuzzTestBody is the small fast campaign the serve tests share.
func fuzzTestBody(t *testing.T, req FuzzRequest) []byte {
	t.Helper()
	if req.Seed == 0 {
		req.Seed = 7
	}
	if req.Count == 0 {
		req.Count = 6
	}
	if req.Profiles == nil {
		req.Profiles = []string{"store-load", "branch-storm"}
	}
	if req.Policies == nil {
		req.Policies = []string{"unsafe"}
	}
	req.NoStorm = true
	req.NoShrink = true
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestServeFuzzEndToEnd drives a campaign through the daemon: POST starts it
// (202 + generated id), status polls reach "done" with sane counters, the
// findings endpoint serves the bucket list, re-POSTing the same id with a
// larger count resumes rather than restarts, and the campaign's metrics
// land in this server's /metrics exposition.
func TestServeFuzzEndToEnd(t *testing.T) {
	_, ts := startServer(t, Config{FuzzDir: t.TempDir()})

	st, resp := postFuzz(t, ts.URL, fuzzTestBody(t, FuzzRequest{}))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/fuzz: status %d", resp.StatusCode)
	}
	if st.SchemaVersion != SchemaVersion || st.ID == "" {
		t.Fatalf("accepted reply malformed: %+v", st)
	}

	done := waitFuzzDone(t, ts.URL, st.ID)
	if done.Status != "done" || done.Summary == nil {
		t.Fatalf("campaign did not complete cleanly: %+v", done)
	}
	if got := done.Summary.Cases + done.Summary.Resumed; got != 6 {
		t.Errorf("cases+resumed = %d, want 6", got)
	}
	if done.Summary.Execs == 0 || done.Summary.CoverageBits == 0 {
		t.Errorf("summary counters empty: %+v", done.Summary)
	}

	// Findings come off the crash-safe state file, whatever their count.
	body, fresp := getBody(t, ts.URL+"/v1/fuzz/"+st.ID+"/findings")
	if fresp.StatusCode != http.StatusOK {
		t.Fatalf("findings: HTTP %d", fresp.StatusCode)
	}
	var ff FuzzFindings
	if err := json.Unmarshal([]byte(body), &ff); err != nil {
		t.Fatal(err)
	}
	if ff.SchemaVersion != SchemaVersion || ff.ID != st.ID || ff.Findings == nil {
		t.Errorf("findings reply malformed: %s", body)
	}

	// Re-POST the finished id with a larger count: the campaign resumes from
	// its directory — the 6 committed cases are never re-executed.
	st2, resp := postFuzz(t, ts.URL, fuzzTestBody(t, FuzzRequest{ID: st.ID, Count: 9}))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resume POST: status %d", resp.StatusCode)
	}
	done2 := waitFuzzDone(t, ts.URL, st2.ID)
	if done2.Status != "done" || done2.Summary == nil {
		t.Fatalf("resumed campaign failed: %+v", done2)
	}
	if done2.Summary.Resumed != 6 || done2.Summary.Cases != 3 {
		t.Errorf("resume executed %d/%d (resumed/cases), want 6/3", done2.Summary.Resumed, done2.Summary.Cases)
	}

	// The campaign instruments are part of this server's exposition.
	mbody, mresp := getBody(t, ts.URL+"/metrics")
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: HTTP %d", mresp.StatusCode)
	}
	types, err := obs.ValidateProm(strings.NewReader(mbody))
	if err != nil {
		t.Fatalf("unparseable exposition:\n%v", err)
	}
	for fam, kind := range map[string]string{
		"fuzz_campaign_cases_total":   "counter",
		"fuzz_campaign_execs_total":   "counter",
		"fuzz_campaign_coverage_bits": "gauge",
		"fuzz_campaign_corpus_size":   "gauge",
	} {
		if types[fam] != kind {
			t.Errorf("family %s: type %q, want %q", fam, types[fam], kind)
		}
	}
}

// TestServeFuzzErrors pins the fuzz endpoints' error taxonomy to the unified
// envelope: 404 for unknown campaigns, 400 for malformed requests, each with
// the kind in the body and the X-Error-Kind header.
func TestServeFuzzErrors(t *testing.T) {
	_, ts := startServer(t, Config{FuzzDir: t.TempDir()})

	for _, path := range []string{"/v1/fuzz/nonesuch", "/v1/fuzz/nonesuch/findings"} {
		body, resp := getBody(t, ts.URL+path)
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: HTTP %d, want 404", path, resp.StatusCode)
		}
		var env ErrorEnvelope
		if err := json.Unmarshal([]byte(body), &env); err != nil {
			t.Fatalf("%s: not an error envelope: %s", path, body)
		}
		if env.Error.Kind != "build" || !strings.Contains(env.Error.Message, "nonesuch") {
			t.Errorf("%s: envelope %+v", path, env)
		}
		if resp.Header.Get("X-Error-Kind") != "build" {
			t.Errorf("%s: X-Error-Kind %q", path, resp.Header.Get("X-Error-Kind"))
		}
	}

	bad := []struct {
		name string
		body []byte
	}{
		{"unknown field", []byte(`{"profles":["store-load"]}`)},
		{"invalid id", []byte(`{"id":"../escape"}`)},
		{"dotfile id", []byte(`{"id":".hidden"}`)},
		{"unknown profile", []byte(`{"profiles":["nonesuch"]}`)},
		{"unknown policy", []byte(`{"policies":["nonesuch"]}`)},
		{"negative count", []byte(`{"count":-1}`)},
		{"negative deadline", []byte(`{"deadline_ms":-5}`)},
	}
	for _, tc := range bad {
		_, resp := postFuzz(t, ts.URL, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400", tc.name, resp.StatusCode)
		}
		if resp.Header.Get("X-Error-Kind") != "build" {
			t.Errorf("%s: X-Error-Kind %q, want build", tc.name, resp.Header.Get("X-Error-Kind"))
		}
	}

	// The unknown-field rejection names the accepted fields.
	resp, err := http.Post(ts.URL+"/v1/fuzz", "application/json", strings.NewReader(`{"profles":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(env.Error.Message, "profles") || !strings.Contains(env.Error.Message, "profiles") {
		t.Errorf("unknown-field message unhelpful: %q", env.Error.Message)
	}
}

// TestServeFuzzPoolFull503 pins the load-shed contract: a campaign occupies
// a worker slot for its whole life, so with one worker a second campaign is
// refused with the retryable 503 envelope, and re-POSTing the running id is
// a 409. The running campaign is cancelled by server Close.
func TestServeFuzzPoolFull503(t *testing.T) {
	_, ts := startServer(t, Config{Dispatch: &dispatch.Config{Workers: 1}, FuzzDir: t.TempDir()})

	// A long campaign (no count bound, 1h duration cap via deadline default)
	// holds the only slot. Count is large enough to outlive the test.
	st, resp := postFuzz(t, ts.URL, fuzzTestBody(t, FuzzRequest{ID: "hog", Count: 1_000_000}))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("long campaign: status %d", resp.StatusCode)
	}

	// Same id again while running: conflict.
	_, resp = postFuzz(t, ts.URL, fuzzTestBody(t, FuzzRequest{ID: st.ID, Count: 1_000_000}))
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("duplicate running id: HTTP %d, want 409", resp.StatusCode)
	}

	// A different campaign: no slot free, retryable 503 with Retry-After.
	resp2, err := http.Post(ts.URL+"/v1/fuzz", "application/json",
		bytes.NewReader(fuzzTestBody(t, FuzzRequest{ID: "second"})))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("pool-full campaign: HTTP %d, want 503", resp2.StatusCode)
	}
	if resp2.Header.Get("Retry-After") == "" {
		t.Error("503 missing Retry-After")
	}
	var env ErrorEnvelope
	if err := json.NewDecoder(resp2.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Kind != "deadline" || !env.Error.Retryable {
		t.Errorf("503 envelope should be retryable deadline kind: %+v", env)
	}
}

// TestServeVersionRoutes asserts /v1/version advertises the fuzz routes —
// the v3 schema's discovery contract.
func TestServeVersionRoutes(t *testing.T) {
	_, ts := startServer(t, Config{})
	body, resp := getBody(t, ts.URL+"/v1/version")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d", resp.StatusCode)
	}
	var v VersionInfo
	if err := json.Unmarshal([]byte(body), &v); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"POST /v1/fuzz", "GET /v1/fuzz/{id}", "GET /v1/fuzz/{id}/findings"} {
		found := false
		for _, r := range v.Routes {
			if r == want {
				found = true
			}
		}
		if !found {
			t.Errorf("route %q missing from /v1/version: %v", want, v.Routes)
		}
	}
}

// TestServeFuzzReleasesSlot: a campaign returns the worker slot it held
// when it finishes, and when it fails, so on a one-worker server the next
// campaign is accepted each time.
func TestServeFuzzReleasesSlot(t *testing.T) {
	_, ts := startServer(t, Config{Dispatch: &dispatch.Config{Workers: 1}, FuzzDir: t.TempDir()})
	start := func(req FuzzRequest) FuzzStatus {
		t.Helper()
		st, resp := postFuzz(t, ts.URL, fuzzTestBody(t, req))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("campaign %q: HTTP %d, want 202 (slot not returned?)", req.ID, resp.StatusCode)
		}
		return waitFuzzDone(t, ts.URL, st.ID)
	}
	if st := start(FuzzRequest{ID: "first"}); st.Status != "done" {
		t.Fatalf("first campaign: %+v", st)
	}
	// Resuming "first" under a different seed is rejected by its state
	// file: the run fails, and must still hand its slot back.
	if st := start(FuzzRequest{ID: "first", Seed: 8}); st.Status != "failed" {
		t.Fatalf("mismatched resume should fail: %+v", st)
	}
	if st := start(FuzzRequest{ID: "second"}); st.Status != "done" {
		t.Fatalf("campaign after a failed one: %+v", st)
	}
}
