package dispatch

import (
	"context"
	"errors"
	"net"
	"sync"
	"time"
)

// ListenOptions tunes a worker daemon's TCP serve loop.
type ListenOptions struct {
	// HeartbeatInterval is the application-level liveness cadence advertised
	// in the hello frame and emitted between (and during) calls. 0 means the
	// default (1s); negative disables heartbeats.
	HeartbeatInterval time.Duration
	// CacheEntries sizes the daemon-wide shared result cache: every
	// connection served by this daemon answers repeats from it and
	// advertises the hit back to the coordinator. 0 means the default
	// (1024); negative disables the cache.
	CacheEntries int
	// DrainTimeout bounds the graceful drain after ctx is cancelled:
	// in-flight calls get this long to finish and write their responses
	// before remaining connections are force-closed. 0 means the default
	// (10s).
	DrainTimeout time.Duration
}

func (o *ListenOptions) normalize() {
	if o.HeartbeatInterval == 0 {
		o.HeartbeatInterval = time.Second
	}
	if o.DrainTimeout == 0 {
		o.DrainTimeout = 10 * time.Second
	}
}

// ListenWorkers serves the worker side of the dispatch protocol to every
// connection accepted on ln — the `levserve -worker-listen` daemon. Each
// connection is one execution slot (strictly sequential calls, the same
// contract as a stdio worker); a daemon serves many coordinators or many
// slots of one coordinator by accepting many connections. All connections
// share one result cache, so any worker serves any repeat across the fleet.
//
// Cancelling ctx starts a graceful drain: the listener closes (no new
// connections), idle connections exit immediately, busy connections answer
// the in-flight call (the cancellation surfaces as a typed transient error
// the coordinator retries elsewhere — never a silent abandonment), and
// anything still open after DrainTimeout is force-closed. ListenWorkers
// returns nil on a clean drain.
func ListenWorkers(ctx context.Context, ln net.Listener, opts ListenOptions) error {
	opts.normalize()
	if ctx == nil {
		ctx = context.Background()
	}
	sopts := serveOptions{cache: newResultCache(opts.CacheEntries)}
	if opts.HeartbeatInterval > 0 {
		sopts.hbInterval = opts.HeartbeatInterval
	}

	// Track live connections so the drain can force-close stragglers.
	var cmu sync.Mutex
	conns := make(map[net.Conn]struct{})

	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-ctx.Done():
			ln.Close()
		case <-stop:
		}
	}()

	var wg sync.WaitGroup
	for {
		conn, err := ln.Accept()
		if err != nil {
			if ctx.Err() != nil || errors.Is(err, net.ErrClosed) {
				break
			}
			return err
		}
		cmu.Lock()
		conns[conn] = struct{}{}
		cmu.Unlock()
		wg.Add(1)
		go func(c net.Conn) {
			defer wg.Done()
			defer func() {
				cmu.Lock()
				delete(conns, c)
				cmu.Unlock()
				c.Close()
			}()
			// Errors here are per-connection (peer hung up, bad frame
			// cascade); the daemon keeps serving other connections.
			_ = serveFrames(ctx, c, c, sopts)
		}(conn)
	}

	// Drain: serveFrames exits on its own once the in-flight call (if any)
	// is answered; the deadline force-closes connections that are stuck
	// mid-read on a peer that stopped talking.
	drained := make(chan struct{})
	go func() { wg.Wait(); close(drained) }()
	select {
	case <-drained:
	case <-time.After(opts.DrainTimeout):
		cmu.Lock()
		for c := range conns {
			c.Close()
		}
		cmu.Unlock()
		wg.Wait()
	}
	return nil
}
