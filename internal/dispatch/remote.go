package dispatch

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"levioso/internal/obs"
)

// RemoteConfig tunes the coordinator side of the TCP worker transport. The
// zero value is usable.
type RemoteConfig struct {
	// DialTimeout bounds one TCP connect. Default 5s.
	DialTimeout time.Duration
	// RedialBackoff is the base delay before redialing a peer that just
	// failed, doubled per consecutive failure up to RedialMax, with ±50%
	// seeded jitter. Defaults 100ms / 10s.
	RedialBackoff time.Duration
	RedialMax     time.Duration
	// HeartbeatTimeout is how long a connection may go without any frame
	// (heartbeat or response) during a call before the peer is declared
	// partitioned. 0 derives it from the worker's advertised heartbeat
	// interval (3×, min 1s); workers that advertise no heartbeats get no
	// partition watchdog (calls still fail on socket death and ctx expiry).
	HeartbeatTimeout time.Duration
	// Seed drives the redial jitter. Default 1 — deterministic by default,
	// like every other seed in the system.
	Seed int64
	// WrapConn, when non-nil, decorates every dialed connection — the
	// faultinject seam for network chaos.
	WrapConn func(net.Conn) net.Conn
	// Registry receives the per-peer metric families. Default obs.Default().
	Registry *obs.Registry
}

func (c *RemoteConfig) withDefaults() RemoteConfig {
	out := *c
	if out.DialTimeout <= 0 {
		out.DialTimeout = 5 * time.Second
	}
	if out.RedialBackoff <= 0 {
		out.RedialBackoff = 100 * time.Millisecond
	}
	if out.RedialMax <= 0 {
		out.RedialMax = 10 * time.Second
	}
	if out.Seed == 0 {
		out.Seed = 1
	}
	if out.Registry == nil {
		out.Registry = obs.Default()
	}
	return out
}

// PeerStats is a point-in-time view of one remote worker address — the
// operator's answer to "which host is degraded" without scraping /metrics.
type PeerStats struct {
	Addr      string `json:"addr"`
	Connected int64  `json:"connected"` // live connections (worker slots) to this peer
	Dials     uint64 `json:"dials"`
	DialFails uint64 `json:"dial_failures"`
	// Reconnects counts connections re-established after a previous
	// connection to this peer was lost.
	Reconnects uint64 `json:"reconnects"`
	// Partitions counts heartbeat-watchdog trips: the peer stopped talking
	// mid-call without closing the socket.
	Partitions uint64 `json:"partitions"`
	// CacheHits counts results this peer served from its daemon-wide shared
	// result cache (advertised back on the wire).
	CacheHits  uint64 `json:"cache_hits"`
	Heartbeats uint64 `json:"heartbeats"`
	// HeartbeatAgeMS is the time since any frame arrived from this peer;
	// -1 when nothing has ever been heard.
	HeartbeatAgeMS int64  `json:"heartbeat_age_ms"`
	LastError      string `json:"last_error,omitempty"`
}

// peer is the fleet's per-address state: dial backoff, lifetime counters,
// and the last-heard clock feeding PeerStats.
type peer struct {
	addr string

	mu          sync.Mutex
	consecFails int
	nextDial    time.Time
	lostConns   int // connections lost, not yet matched by a reconnect
	everUp      bool
	lastErr     string

	dials      atomic.Uint64
	dialFails  atomic.Uint64
	reconnects atomic.Uint64
	partitions atomic.Uint64
	cacheHits  atomic.Uint64
	heartbeats atomic.Uint64
	live       atomic.Int64
	lastHeard  atomic.Int64 // unix nanos of the latest frame; 0 = never
}

// RemoteFleet turns a set of worker-daemon addresses into a Spawner: each
// spawn dials the next address round-robin (skipping peers still serving a
// redial backoff), performs the hello handshake, and returns a wire worker
// whose calls ride that one connection. A lost connection poisons the worker
// like any other failed call, the coordinator's restart path calls the
// Spawner again, and the fleet's per-peer backoff keeps a down host from
// eating the crash-loop budget in a tight dial loop.
type RemoteFleet struct {
	cfg   RemoteConfig
	peers []*peer
	next  atomic.Uint64

	jit *jitter

	mDials      *obs.CounterVec
	mDialFails  *obs.CounterVec
	mReconnects *obs.CounterVec
	mPartitions *obs.CounterVec
	mCacheHits  *obs.CounterVec
	mHeartbeats *obs.CounterVec
	mConnected  *obs.GaugeVec
}

// NewRemote builds a fleet over the given worker addresses.
func NewRemote(cfg RemoteConfig, addrs ...string) (*RemoteFleet, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("dispatch: remote fleet needs at least one address")
	}
	c := cfg.withDefaults()
	f := &RemoteFleet{cfg: c, jit: newJitter(c.Seed)}
	for _, a := range addrs {
		f.peers = append(f.peers, &peer{addr: a})
	}
	r := c.Registry
	f.mDials = r.CounterVec("dispatch_remote_dials_total", "TCP dials attempted per worker peer.", "peer")
	f.mDialFails = r.CounterVec("dispatch_remote_dial_failures_total", "TCP dials failed per worker peer.", "peer")
	f.mReconnects = r.CounterVec("dispatch_remote_reconnects_total", "Connections re-established after loss, per peer.", "peer")
	f.mPartitions = r.CounterVec("dispatch_remote_partitions_total", "Heartbeat-watchdog partition detections per peer.", "peer")
	f.mCacheHits = r.CounterVec("dispatch_remote_cache_hits_total", "Worker-daemon shared-cache hits advertised per peer.", "peer")
	f.mHeartbeats = r.CounterVec("dispatch_remote_heartbeats_total", "Heartbeat frames received per peer.", "peer")
	f.mConnected = r.GaugeVec("dispatch_remote_connected", "Live connections per worker peer.", "peer")
	return f, nil
}

// Spawner adapts the fleet to the coordinator's worker-creation seam.
func (f *RemoteFleet) Spawner() Spawner { return f.spawn }

// Peers snapshots every peer's connection state.
func (f *RemoteFleet) Peers() []PeerStats {
	out := make([]PeerStats, 0, len(f.peers))
	for _, p := range f.peers {
		p.mu.Lock()
		lastErr := p.lastErr
		p.mu.Unlock()
		age := int64(-1)
		if heard := p.lastHeard.Load(); heard != 0 {
			age = time.Since(time.Unix(0, heard)).Milliseconds()
		}
		out = append(out, PeerStats{
			Addr:           p.addr,
			Connected:      p.live.Load(),
			Dials:          p.dials.Load(),
			DialFails:      p.dialFails.Load(),
			Reconnects:     p.reconnects.Load(),
			Partitions:     p.partitions.Load(),
			CacheHits:      p.cacheHits.Load(),
			Heartbeats:     p.heartbeats.Load(),
			HeartbeatAgeMS: age,
			LastError:      lastErr,
		})
	}
	return out
}

// spawn dials one worker connection: round-robin over peers whose backoff
// has elapsed, or — when every peer is backing off — a bounded wait for the
// soonest one. At most one dial attempt per peer per spawn; persistent
// failure is reported to the coordinator, whose crash-loop budget remains
// the final arbiter of giving up.
func (f *RemoteFleet) spawn(ctx context.Context) (Worker, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	n := len(f.peers)
	start := int(f.next.Add(1)-1) % n
	now := time.Now()
	var lastErr error
	var soonest *peer
	var soonestAt time.Time
	for i := 0; i < n; i++ {
		p := f.peers[(start+i)%n]
		p.mu.Lock()
		at := p.nextDial
		p.mu.Unlock()
		if at.After(now) {
			if soonest == nil || at.Before(soonestAt) {
				soonest, soonestAt = p, at
			}
			continue
		}
		w, err := f.dial(ctx, p)
		if err == nil {
			return w, nil
		}
		lastErr = err
	}
	if lastErr == nil && soonest != nil {
		// Every peer is in backoff: wait out the shortest one, then one try.
		t := time.NewTimer(time.Until(soonestAt))
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			return nil, transportErr("spawn cancelled: %v", ctx.Err())
		}
		w, err := f.dial(ctx, soonest)
		if err == nil {
			return w, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

// dial connects, decorates, and handshakes one peer, updating its backoff
// state either way.
func (f *RemoteFleet) dial(ctx context.Context, p *peer) (Worker, error) {
	p.dials.Add(1)
	f.mDials.With(p.addr).Inc()
	d := net.Dialer{Timeout: f.cfg.DialTimeout}
	conn, err := d.DialContext(ctx, "tcp", p.addr)
	if err != nil {
		return nil, f.dialFailed(p, transportErr("dial %s: %v", p.addr, err))
	}
	if f.cfg.WrapConn != nil {
		conn = f.cfg.WrapConn(conn)
	}
	w, err := newWireWorker(ctx, &connHandle{conn: conn, f: f, p: p}, conn, conn)
	if err != nil {
		return nil, f.dialFailed(p, err)
	}
	f.dialSucceeded(p)
	return w, nil
}

// dialFailed records a failure and arms the peer's exponential backoff.
func (f *RemoteFleet) dialFailed(p *peer, err error) error {
	p.dialFails.Add(1)
	f.mDialFails.With(p.addr).Inc()
	p.mu.Lock()
	p.consecFails++
	p.nextDial = time.Now().Add(f.jit.backoff(f.cfg.RedialBackoff, p.consecFails-1, 10, f.cfg.RedialMax))
	p.lastErr = err.Error()
	p.mu.Unlock()
	return err
}

// dialSucceeded resets the peer's backoff and settles reconnect accounting.
func (f *RemoteFleet) dialSucceeded(p *peer) {
	p.mu.Lock()
	p.consecFails = 0
	p.nextDial = time.Time{}
	p.lastErr = ""
	if p.everUp && p.lostConns > 0 {
		p.lostConns--
		p.reconnects.Add(1)
		f.mReconnects.With(p.addr).Inc()
	}
	p.everUp = true
	p.mu.Unlock()
	f.mConnected.With(p.addr).Set(p.live.Add(1))
}

// connLost records a dropped connection; the next successful dial to the
// peer counts as a reconnect.
func (f *RemoteFleet) connLost(p *peer) {
	f.mConnected.With(p.addr).Set(p.live.Add(-1))
	p.mu.Lock()
	p.lostConns++
	p.mu.Unlock()
}

// connHandle is a worker daemon's end of a TCP stream. There is no process
// to reap: kill closes the socket and settles the peer's live count, and the
// daemon itself keeps running.
type connHandle struct {
	conn net.Conn
	f    *RemoteFleet
	p    *peer
}

func (h *connHandle) kill() {
	h.conn.Close()
	h.f.connLost(h.p)
}

func (h *connHandle) wait() error { return nil }
