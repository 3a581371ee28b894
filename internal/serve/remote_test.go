package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"sync"
	"testing"
	"time"

	"levioso/internal/dispatch"
	"levioso/internal/engine"
)

// startWorkerDaemons runs n TCP worker daemons on loopback and returns
// their addresses. Cleanup drains them.
func startWorkerDaemons(t *testing.T, n int) []string {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var addrs []string
	var dones []chan struct{}
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, ln.Addr().String())
		done := make(chan struct{})
		dones = append(dones, done)
		go func(ln net.Listener) {
			defer close(done)
			dispatch.ListenWorkers(ctx, ln, dispatch.ListenOptions{
				HeartbeatInterval: 25 * time.Millisecond,
			})
		}(ln)
	}
	t.Cleanup(func() {
		cancel()
		for _, done := range dones {
			select {
			case <-done:
			case <-time.After(15 * time.Second):
				t.Error("worker daemon did not drain")
			}
		}
	})
	return addrs
}

// TestServeRemoteBatch is the multi-host quick-start as a test: one
// coordinator daemon fronting two TCP worker daemons, a /v1/batch request
// whose cells all round-trip through real sockets, and /v1/stats reporting
// the per-peer fleet state.
func TestServeRemoteBatch(t *testing.T) {
	addrs := startWorkerDaemons(t, 2)
	s, ts := startServer(t, Config{
		Remote: addrs,
		RemoteConfig: dispatch.RemoteConfig{
			DialTimeout:   2 * time.Second,
			RedialBackoff: 2 * time.Millisecond,
		},
		Dispatch: &dispatch.Config{Workers: 4, CacheEntries: -1},
	})

	// Ground truth for the one batch cell shape we send.
	want, err := engine.Run(context.Background(), engine.Request{
		Name: "hist.lc", Source: histSrc, Verify: true,
		Overrides: engine.Overrides{Policy: "levioso"},
	})
	if err != nil {
		t.Fatal(err)
	}

	cells := make([]SimRequest, 8)
	for i := range cells {
		cells[i] = SimRequest{Name: "hist.lc", Source: histSrc, Policy: "levioso", Verify: true}
	}
	body, err := json.Marshal(BatchRequest{Cells: cells})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}

	sc := bufio.NewScanner(resp.Body)
	var got int
	var trailer BatchTrailer
	for sc.Scan() {
		var probe struct {
			Done *bool `json:"done"`
		}
		if err := json.Unmarshal(sc.Bytes(), &probe); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if probe.Done != nil {
			if err := json.Unmarshal(sc.Bytes(), &trailer); err != nil {
				t.Fatal(err)
			}
			continue
		}
		var line BatchCellResult
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatal(err)
		}
		if line.Error != nil {
			t.Fatalf("cell %d failed: %+v", line.Index, line.Error)
		}
		if line.Exit != want.ExitCode || line.Output != want.Output || line.Stats == nil || *line.Stats != want.Stats {
			t.Fatalf("cell %d differs from engine run:\n got=%+v\nwant=%+v", line.Index, line, want)
		}
		got++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if got != len(cells) || !trailer.Done || trailer.Completed != len(cells) || trailer.Failed != 0 {
		t.Fatalf("stream: %d cells, trailer %+v", got, trailer)
	}

	// /v1/stats names both peers with live connection state.
	st := s.Stats()
	if len(st.RemotePeers) != 2 {
		t.Fatalf("stats report %d remote peers, want 2: %+v", len(st.RemotePeers), st.RemotePeers)
	}
	seen := map[string]bool{}
	var dials uint64
	for _, p := range st.RemotePeers {
		seen[p.Addr] = true
		dials += p.Dials
	}
	for _, a := range addrs {
		if !seen[a] {
			t.Fatalf("peer %s missing from stats: %+v", a, st.RemotePeers)
		}
	}
	if dials < 2 {
		t.Fatalf("stats show %d dials across peers, want ≥2: %+v", dials, st.RemotePeers)
	}
	var httpStats ServerStats
	sresp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if err := json.NewDecoder(sresp.Body).Decode(&httpStats); err != nil {
		t.Fatal(err)
	}
	if len(httpStats.RemotePeers) != 2 {
		t.Fatalf("GET /v1/stats remote_peers = %+v, want both peers", httpStats.RemotePeers)
	}
}

// recordingListener keeps every byte its connections read: the frames a
// worker daemon receives.
type recordingListener struct {
	net.Listener
	mu    sync.Mutex
	conns []*bytes.Buffer
}

func (l *recordingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	buf := new(bytes.Buffer)
	l.conns = append(l.conns, buf)
	return &recordingConn{Conn: c, mu: &l.mu, buf: buf}, nil
}

// frameImages returns the program image of every cell frame received.
func (l *recordingListener) frameImages(t *testing.T) [][]byte {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	var imgs [][]byte
	for _, buf := range l.conns {
		for _, line := range bytes.Split(buf.Bytes(), []byte("\n")) {
			var frame struct {
				Binary []byte `json:"binary"`
			}
			if len(line) == 0 {
				continue
			}
			if err := json.Unmarshal(line, &frame); err != nil {
				t.Fatalf("bad frame %q: %v", line, err)
			}
			if frame.Binary != nil {
				imgs = append(imgs, frame.Binary)
			}
		}
	}
	return imgs
}

type recordingConn struct {
	net.Conn
	mu  *sync.Mutex
	buf *bytes.Buffer
}

func (c *recordingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.mu.Lock()
	c.buf.Write(b[:n])
	c.mu.Unlock()
	return n, err
}

// TestBinaryCellShipsItsImage: a binary input reaches the TCP worker
// daemon as the bytes the client sent, through /v1/batch and /v1/simulate
// alike — levserve never re-encodes the program between decoding the
// request and writing the frame. The image is a valid second encoding of
// its program (version 2, no secret ranges), which a re-encode would turn
// back into version 1.
func TestBinaryCellShipsItsImage(t *testing.T) {
	prog, _, err := engine.Compile("hist.lc", histSrc, true)
	if err != nil {
		t.Fatal(err)
	}
	canon, err := prog.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	img := append(append([]byte(nil), canon...), 0, 0, 0, 0) // no secret ranges
	binary.LittleEndian.PutUint16(img[6:], 2)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordingListener{Listener: ln}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		dispatch.ListenWorkers(ctx, rec, dispatch.ListenOptions{HeartbeatInterval: 25 * time.Millisecond})
	}()
	defer func() { cancel(); <-done }()
	_, ts := startServer(t, Config{
		Remote:       []string{ln.Addr().String()},
		RemoteConfig: dispatch.RemoteConfig{DialTimeout: 2 * time.Second, RedialBackoff: 2 * time.Millisecond},
		Dispatch:     &dispatch.Config{Workers: 2, CacheEntries: -1},
	})

	cells := []SimRequest{
		{Name: "a", Binary: img, Policy: "levioso"},
		{Name: "b", Binary: img, Policy: "delay"},
	}
	body, err := json.Marshal(BatchRequest{Cells: cells})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	reply, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || !bytes.Contains(reply, []byte(`"completed":2`)) {
		t.Fatalf("batch: status %d, %s (%v)", resp.StatusCode, reply, err)
	}
	if sim, hr := postSimulate(t, ts.URL, SimRequest{Name: "c", Binary: img, Policy: "fence"}); hr.StatusCode != http.StatusOK {
		t.Fatalf("simulate: status %d, %+v", hr.StatusCode, sim)
	}

	imgs := rec.frameImages(t)
	if len(imgs) != 3 {
		t.Fatalf("daemon received %d cell frames, want 3", len(imgs))
	}
	for i, got := range imgs {
		if !bytes.Equal(got, img) {
			t.Errorf("frame %d carries a re-encoded image (%d bytes, version %d), not the %d bytes the client sent",
				i, len(got), binary.LittleEndian.Uint16(got[6:]), len(img))
		}
	}
}
