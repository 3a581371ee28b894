package dispatch

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"levioso/internal/engine"
	"levioso/internal/simerr"
)

// scriptedEnd is the worker side of one wire stream, played by a test: it
// sends a valid hello, then hands every request line it reads to a reply
// function until its stream ends.
type scriptedEnd struct {
	reqs atomic.Int64  // request lines read
	done chan struct{} // closed once the far end has seen its stream end
}

// replyFunc answers one request on w. Returning true hangs up the far end's
// side of the stream.
type replyFunc func(req wireRequest, w io.Writer) bool

// scriptedWorker connects a coordinator-side wire client over transport
// ("pipe" or "tcp") to a scripted far end. Cleanup kills the worker and waits
// for the far end to see its stream end.
func scriptedWorker(t *testing.T, transport string, reply replyFunc) (Worker, *scriptedEnd) {
	t.Helper()
	end := &scriptedEnd{done: make(chan struct{})}
	serve := func(r io.Reader, w io.Writer, hangUp func()) {
		defer close(end.done)
		json.NewEncoder(w).Encode(wireHello{Hello: &wireHelloBody{SchemaVersion: WireSchemaVersion, PID: 1}})
		sc := bufio.NewScanner(r)
		sc.Buffer(make([]byte, 0, 64<<10), maxFrameBytes)
		for sc.Scan() {
			end.reqs.Add(1)
			var req wireRequest
			json.Unmarshal(sc.Bytes(), &req)
			if reply(req, w) {
				hangUp()
			}
		}
	}
	var w Worker
	var err error
	switch transport {
	case "pipe":
		inR, inW := io.Pipe()
		outR, outW := io.Pipe()
		h := &pipeHandle{cancel: func() {}, inR: inR, outW: outW, done: make(chan struct{})}
		go func() {
			defer close(h.done)
			serve(inR, outW, func() { outW.Close() })
		}()
		w, err = newWireWorker(context.Background(), h, inW, outR)
	case "tcp":
		addr := rawServer(t, func(c net.Conn) {
			defer c.Close()
			serve(c, c, func() { c.(*net.TCPConn).CloseWrite() })
		})
		w, err = testFleet(t, RemoteConfig{}, addr).spawn(context.Background())
	default:
		t.Fatalf("unknown transport %q", transport)
	}
	if err != nil {
		t.Fatalf("%s: handshake with the scripted far end: %v", transport, err)
	}
	t.Cleanup(func() {
		w.Kill()
		select {
		case <-end.done:
		case <-time.After(5 * time.Second):
			t.Errorf("%s: scripted far end never saw its stream end", transport)
		}
	})
	return w, end
}

// TestWirePoisoning: a reply with the wrong frame ID, a corrupt reply line
// and a call abandoned mid-flight each fail with a transport error and poison
// the worker, over a pipe and over TCP alike: the next Execute fails at once,
// without writing another request.
func TestWirePoisoning(t *testing.T) {
	cell := &Cell{Name: "cell.lc", Program: testProgram(t), Overrides: engine.Overrides{Policy: "fence"}}
	cases := []struct {
		name   string
		reply  replyFunc
		cancel bool // cancel the call once the far end has read the request
	}{
		{name: "wrong id", reply: func(req wireRequest, w io.Writer) bool {
			fmt.Fprintf(w, "{\"id\":%d,\"exit\":7}\n", req.ID+1)
			return false
		}},
		{name: "corrupt line", reply: func(req wireRequest, w io.Writer) bool {
			fmt.Fprintf(w, "{\"id\":%d,\"exit\":\n", req.ID)
			return false
		}},
		{name: "cancelled", cancel: true, reply: func(wireRequest, io.Writer) bool { return false }},
	}
	for _, transport := range []string{"pipe", "tcp"} {
		for _, tc := range cases {
			t.Run(transport+"/"+tc.name, func(t *testing.T) {
				w, end := scriptedWorker(t, transport, tc.reply)
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				errc := make(chan error, 1)
				go func() {
					_, err := w.Execute(ctx, cell)
					errc <- err
				}()
				if tc.cancel {
					for deadline := time.Now().Add(5 * time.Second); end.reqs.Load() == 0; {
						if time.Now().After(deadline) {
							t.Fatal("the far end never read the request")
						}
						time.Sleep(time.Millisecond)
					}
					cancel()
				}
				select {
				case err := <-errc:
					if simerr.KindOf(err) != simerr.KindTransport {
						t.Fatalf("first call: err = %v (kind %v), want a transport failure", err, simerr.KindOf(err))
					}
				case <-time.After(10 * time.Second):
					t.Fatal("first call never returned")
				}

				start := time.Now()
				_, err := w.Execute(context.Background(), cell)
				if simerr.KindOf(err) != simerr.KindTransport {
					t.Fatalf("call on a poisoned worker: err = %v (kind %v), want a transport failure", err, simerr.KindOf(err))
				}
				if d := time.Since(start); d > time.Second {
					t.Fatalf("call on a poisoned worker took %v, want an immediate failure", d)
				}

				w.Kill()
				select {
				case <-end.done:
				case <-time.After(5 * time.Second):
					t.Fatal("the far end never saw its stream end")
				}
				if n := end.reqs.Load(); n != 1 {
					t.Fatalf("the far end read %d requests, want 1", n)
				}
			})
		}
	}
}

// FuzzWireReply feeds arbitrary bytes to the coordinator-side client as the
// reply to its first request. Execute must return, must not panic, and any
// error must be a typed *simerr.RunError.
func FuzzWireReply(f *testing.F) {
	prog, _, err := engine.Compile("cell.lc", testSrc, true)
	if err != nil {
		f.Fatal(err)
	}
	cell := &Cell{Name: "cell.lc", Program: prog, Overrides: engine.Overrides{Policy: "fence"}}
	f.Fuzz(func(t *testing.T, reply []byte) {
		w, _ := scriptedWorker(t, "pipe", func(_ wireRequest, w io.Writer) bool {
			w.Write(reply)
			return true
		})
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_, err := w.Execute(ctx, cell)
		var re *simerr.RunError
		if err != nil && !errors.As(err, &re) {
			t.Fatalf("untyped error %T: %v", err, err)
		}
	})
}

// TestRemoteConnectedGauge: a live TCP connection counts once in its peer's
// connected gauge and leaves it once, however often the worker is killed or
// closed; a stream whose hello fails never counted, so it never leaves, and
// the gauge never goes negative.
func TestRemoteConnectedGauge(t *testing.T) {
	connected := func(f *RemoteFleet) (int64, int64) {
		p := f.peers[0]
		return f.Peers()[0].Connected, f.mConnected.With(p.addr).Value()
	}

	v1 := rawServer(t, func(c net.Conn) {
		json.NewEncoder(c).Encode(wireHello{Hello: &wireHelloBody{SchemaVersion: 1, PID: 1}})
		c.Read(make([]byte, 1)) // linger until the coordinator hangs up
		c.Close()
	})
	refused := testFleet(t, RemoteConfig{}, v1)
	if _, err := refused.spawn(context.Background()); err == nil {
		t.Fatal("spawn against a v1 daemon succeeded")
	}
	if live, gauge := connected(refused); live != 0 || gauge != 0 {
		t.Fatalf("after a refused hello: live %d, gauge %d, want 0 and 0", live, gauge)
	}

	fleet := testFleet(t, RemoteConfig{}, startWorkerDaemon(t, ListenOptions{}))
	w, err := fleet.spawn(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if live, gauge := connected(fleet); live != 1 || gauge != 1 {
		t.Fatalf("with one connection: live %d, gauge %d, want 1 and 1", live, gauge)
	}
	w.Close()
	w.Kill()
	if live, gauge := connected(fleet); live != 0 || gauge != 0 {
		t.Fatalf("after close: live %d, gauge %d, want 0 and 0", live, gauge)
	}
}
