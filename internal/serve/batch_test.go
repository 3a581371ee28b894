package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"

	"levioso/internal/dispatch"
	"levioso/internal/engine"
)

// postBatch sends a batch and parses the NDJSON stream into cell lines and
// the trailer.
func postBatch(t *testing.T, url string, br BatchRequest) ([]BatchCellResult, *BatchTrailer, *http.Response) {
	t.Helper()
	body, err := json.Marshal(br)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, nil, resp
	}
	var cells []BatchCellResult
	var trailer *BatchTrailer
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		if bytes.Contains(sc.Bytes(), []byte(`"done":true`)) {
			trailer = new(BatchTrailer)
			if err := json.Unmarshal(sc.Bytes(), trailer); err != nil {
				t.Fatal(err)
			}
			continue
		}
		var line BatchCellResult
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		cells = append(cells, line)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return cells, trailer, resp
}

// TestBatchStreamsCorrectResults: a mixed batch comes back complete, every
// cell bit-identical to a direct engine.Run, no index lost or duplicated,
// and the trailer accounts for every line.
func TestBatchStreamsCorrectResults(t *testing.T) {
	_, ts := startServer(t, Config{Dispatch: &dispatch.Config{Workers: 4}})
	policies := []string{"unsafe", "fence", "levioso", "delay"}
	var br BatchRequest
	for i := 0; i < 12; i++ {
		br.Cells = append(br.Cells, SimRequest{
			Source: histSrc, Policy: policies[i%len(policies)], Verify: true,
		})
	}
	cells, trailer, resp := postBatch(t, ts.URL, br)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	if trailer == nil || !trailer.Done || trailer.Completed != 12 || trailer.Failed != 0 {
		t.Fatalf("trailer: %+v", trailer)
	}
	if len(cells) != 12 {
		t.Fatalf("%d cell lines, want 12", len(cells))
	}
	seen := make(map[int]bool)
	for _, line := range cells {
		if line.Error != nil {
			t.Fatalf("cell %d failed: %+v", line.Index, line.Error)
		}
		if seen[line.Index] {
			t.Fatalf("cell %d streamed twice", line.Index)
		}
		seen[line.Index] = true
		want, err := engine.Run(context.Background(), engine.Request{
			Source: histSrc, Verify: true,
			Overrides: engine.Overrides{Policy: br.Cells[line.Index].Policy},
		})
		if err != nil {
			t.Fatal(err)
		}
		if line.Exit != want.ExitCode || line.Output != want.Output || *line.Stats != want.Stats {
			t.Fatalf("cell %d differs from engine.Run", line.Index)
		}
	}
}

// TestBatchPerCellErrors: one broken cell fails alone with a typed error;
// the rest of the batch completes.
func TestBatchPerCellErrors(t *testing.T) {
	_, ts := startServer(t, Config{})
	br := BatchRequest{Cells: []SimRequest{
		{Source: histSrc, Policy: "unsafe"},
		{Source: "func main( {"},              // parse error
		{Source: histSrc, Policy: "nonesuch"}, // unknown policy
		{Source: histSrc, Ref: true},          // no batch ref path
	}}
	cells, trailer, resp := postBatch(t, ts.URL, br)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if trailer == nil || trailer.Completed != 1 || trailer.Failed != 3 {
		t.Fatalf("trailer: %+v", trailer)
	}
	for _, line := range cells {
		if line.Index == 0 {
			if line.Error != nil {
				t.Fatalf("healthy cell failed: %+v", line.Error)
			}
			continue
		}
		if line.Error == nil || line.Error.Kind != "build" {
			t.Fatalf("cell %d: want typed build error, got %+v", line.Index, line.Error)
		}
	}
}

// TestBatchShedsWithRetryAfter: a batch that would fit an empty queue, but
// not one whose capacity an in-flight batch holds, is shed atomically with
// 503, Retry-After, the shed kind, and queue depth in the envelope — and
// goes through once the capacity is released.
func TestBatchShedsWithRetryAfter(t *testing.T) {
	s, ts := startServer(t, Config{Dispatch: &dispatch.Config{Workers: 1, QueueDepth: 2, CacheEntries: -1}})
	spin := SimRequest{Source: spinSrc, MaxCycles: 2_000_000_000}
	hold, err := json.Marshal(BatchRequest{Cells: []SimRequest{spin, spin}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/batch", bytes.NewReader(hold))
	if err != nil {
		t.Fatal(err)
	}
	holdDone := make(chan struct{})
	go func() {
		defer close(holdDone)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	for deadline := time.Now().Add(10 * time.Second); s.Stats().Dispatch.Pending != 2; {
		if time.Now().After(deadline) {
			t.Fatal("holding batch was never admitted")
		}
		time.Sleep(5 * time.Millisecond)
	}

	one, _ := json.Marshal(BatchRequest{Cells: []SimRequest{{Source: histSrc}}})
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader(one))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("503 without Retry-After")
	}
	if kind := resp.Header.Get("X-Error-Kind"); kind != "shed" {
		t.Fatalf("error kind %q, want shed", kind)
	}
	var env ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if !env.Error.Retryable || env.Error.QueueDepth != 2 {
		t.Fatalf("shed must be retryable and report the queue depth: %+v", env.Error)
	}
	if st := s.Stats(); st.Dispatch.Shed == 0 || st.Rejected != 1 {
		t.Fatalf("shed not counted: rejected=%d %+v", st.Rejected, st.Dispatch)
	}

	// Hanging up releases the held capacity; the same batch then fits.
	cancel()
	<-holdDone
	for deadline := time.Now().Add(30 * time.Second); s.Stats().Dispatch.Pending != 0; {
		if time.Now().After(deadline) {
			t.Fatalf("held capacity leaked: %+v", s.Stats().Dispatch)
		}
		time.Sleep(5 * time.Millisecond)
	}
	cells, trailer, resp2 := postBatch(t, ts.URL, BatchRequest{Cells: []SimRequest{{Source: histSrc}}})
	if resp2.StatusCode != http.StatusOK || trailer == nil || trailer.Completed != 1 {
		t.Fatalf("batch after release: status=%d trailer=%+v cells=%d",
			resp2.StatusCode, trailer, len(cells))
	}
}

// TestBatchClientDisconnectKeepsPartialResults: a client that hangs up
// mid-stream keeps the lines already flushed, and the server neither wedges
// nor leaks the admitted capacity.
func TestBatchClientDisconnectKeepsPartialResults(t *testing.T) {
	s, ts := startServer(t, Config{Dispatch: &dispatch.Config{Workers: 1, CacheEntries: -1}})
	var br BatchRequest
	// One fast cell, then slow spinners the client will not wait for. The
	// batch cache is disabled per-cell by distinct max_cycles values.
	br.Cells = append(br.Cells, SimRequest{Source: histSrc, Policy: "unsafe"})
	for i := 0; i < 3; i++ {
		br.Cells = append(br.Cells, SimRequest{
			Source: spinSrc, MaxCycles: uint64(1_000_000_000 + i),
		})
	}
	body, _ := json.Marshal(br)
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/batch", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read the first streamed line — a partial result — then hang up.
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatalf("no first line before disconnect: %v", sc.Err())
	}
	var first BatchCellResult
	if err := json.Unmarshal(sc.Bytes(), &first); err != nil {
		t.Fatalf("first line %q: %v", sc.Text(), err)
	}
	if first.Error != nil {
		t.Fatalf("first streamed cell failed: %+v", first.Error)
	}
	cancel()
	resp.Body.Close()

	// The admitted capacity must drain once the cancelled cells unwind.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if st := s.Stats(); st.Dispatch.Pending == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("admitted capacity leaked: %+v", s.Stats().Dispatch)
		}
		time.Sleep(20 * time.Millisecond)
	}
	// And the server still serves.
	got, resp3 := postSimulate(t, ts.URL, SimRequest{Source: histSrc, Policy: "unsafe"})
	if resp3.StatusCode != http.StatusOK || got.Stats.Committed == 0 {
		t.Fatalf("server wedged after batch disconnect: %d %+v", resp3.StatusCode, got)
	}
}

// TestBatchValidation pins the request-level 400s.
func TestBatchValidation(t *testing.T) {
	_, ts := startServer(t, Config{Dispatch: &dispatch.Config{QueueDepth: 2}})
	for name, body := range map[string]string{
		"empty":     `{"cells":[]}`,
		"unknown":   `{"cells":[{"polcy":"fence"}]}`,
		"oversized": `{"cells":[{},{},{}]}`,
		"malformed": `{nope`,
	} {
		resp, err := http.Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
}
