package faultinject

import (
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// NetKind selects a network fault mechanism — the failure modes a
// coordinator sees from a real multi-host fleet, injected as a net.Conn
// decorator between the dispatcher and an otherwise healthy TCP worker.
type NetKind int

const (
	// ConnKill closes the connection mid-operation: socket death, the
	// remote-transport analogue of WorkerKill.
	ConnKill NetKind = iota
	// NetLatency delays the operation by Delay (+ up to Jitter, seeded) —
	// a slow link, food for heartbeat tuning.
	NetLatency
	// PartialWrite delivers only half the frame and then kills the
	// connection while reporting the write as fully successful — TCP's
	// classic lie, where write() returns long before the peer receives.
	PartialWrite
	// CorruptFrame flips one byte of the payload to NUL. NUL is invalid
	// anywhere in NDJSON — inside strings (control character) and between
	// tokens alike — so corruption is always *detected*, never a
	// valid-but-wrong frame that would poison a bit-identical assertion.
	CorruptFrame
	// NetPartition silently drops the peer: subsequent writes claim
	// success, reads block until the connection is closed. Only the
	// heartbeat watchdog can see this one.
	NetPartition
)

func (k NetKind) String() string {
	switch k {
	case ConnKill:
		return "conn-kill"
	case NetLatency:
		return "latency"
	case PartialWrite:
		return "partial-write"
	case CorruptFrame:
		return "corrupt-frame"
	case NetPartition:
		return "partition"
	default:
		return "invalid"
	}
}

// NetFault is one armed network fault.
type NetFault struct {
	Kind NetKind
	// Prob is the per-operation (Read/Write) fire probability.
	Prob float64
	// FirstOps arms the fault only on the first N conn operations through
	// the plan (0 = every op) — the storm-that-dies-down knob that lets a
	// bounded-completion-time chaos run provably drain.
	FirstOps uint64
	// Delay sizes NetLatency; Jitter adds up to this much more (seeded).
	Delay  time.Duration
	Jitter time.Duration
}

// NetPlan is a reproducible storm of network faults for one fleet. The PRNG
// is seeded; the op counter is global to the plan, so FirstOps windows span
// every connection the fleet dials.
type NetPlan struct {
	Seed   int64
	Faults []NetFault
}

// NetInjector applies one NetPlan to every connection passed through Wrap —
// the dispatch.RemoteConfig.WrapConn seam.
type NetInjector struct {
	mu     sync.Mutex
	rng    *rand.Rand
	faults []NetFault
	ops    uint64
	fired  map[NetKind]uint64
}

// NewNet builds the injector for one fleet's lifetime.
func NewNet(plan NetPlan) *NetInjector {
	return &NetInjector{
		rng:    rand.New(rand.NewSource(plan.Seed)),
		faults: plan.Faults,
		fired:  make(map[NetKind]uint64),
	}
}

// Wrap decorates one connection with the fault plan.
func (ni *NetInjector) Wrap(conn net.Conn) net.Conn {
	return &faultyConn{Conn: conn, ni: ni, cut: make(chan struct{})}
}

// Fired reports how many times each fault kind has fired, by kind name.
func (ni *NetInjector) Fired() map[string]uint64 {
	ni.mu.Lock()
	defer ni.mu.Unlock()
	out := make(map[string]uint64, len(ni.fired))
	for k, n := range ni.fired {
		out[k.String()] = n
	}
	return out
}

// pick rolls the dice for one conn operation. At most one fault fires per
// op (first armed match wins); write selects whether write-only faults are
// eligible.
func (ni *NetInjector) pick(write bool) (NetFault, bool) {
	ni.mu.Lock()
	defer ni.mu.Unlock()
	ni.ops++
	for _, f := range ni.faults {
		if f.Kind == PartialWrite && !write {
			continue
		}
		if f.FirstOps != 0 && ni.ops > f.FirstOps {
			continue
		}
		if ni.rng.Float64() < f.Prob {
			ni.fired[f.Kind]++
			return f, true
		}
	}
	return NetFault{}, false
}

// index picks a seeded corruption offset in [0, n).
func (ni *NetInjector) index(n int) int {
	ni.mu.Lock()
	defer ni.mu.Unlock()
	return ni.rng.Intn(n)
}

// sleep serves a latency fault's delay.
func (ni *NetInjector) sleep(f NetFault) {
	d := f.Delay
	if f.Jitter > 0 {
		ni.mu.Lock()
		d += time.Duration(ni.rng.Int63n(int64(f.Jitter)))
		ni.mu.Unlock()
	}
	if d > 0 {
		time.Sleep(d)
	}
}

// faultyConn interposes on Read/Write; the rest of net.Conn passes through.
// A partition is a latch: once tripped, writes succeed into the void and
// reads block until Close — exactly the silence only a heartbeat watchdog
// can diagnose.
type faultyConn struct {
	net.Conn
	ni          *NetInjector
	partitioned atomic.Bool
	closeOnce   sync.Once
	cut         chan struct{}
}

func (c *faultyConn) Read(b []byte) (int, error) {
	if c.partitioned.Load() {
		return c.blockUntilClosed()
	}
	f, fire := c.ni.pick(false)
	if fire {
		switch f.Kind {
		case ConnKill:
			c.Close()
			return 0, fmt.Errorf("faultinject: connection killed on read")
		case NetLatency:
			c.ni.sleep(f)
		case NetPartition:
			c.partitioned.Store(true)
			return c.blockUntilClosed()
		}
	}
	n, err := c.Conn.Read(b)
	if fire && f.Kind == CorruptFrame && n > 0 {
		b[c.ni.index(n)] = 0x00
	}
	return n, err
}

func (c *faultyConn) Write(b []byte) (int, error) {
	if c.partitioned.Load() {
		return len(b), nil
	}
	f, fire := c.ni.pick(true)
	if !fire {
		return c.Conn.Write(b)
	}
	switch f.Kind {
	case ConnKill:
		c.Close()
		return 0, fmt.Errorf("faultinject: connection killed on write")
	case NetLatency:
		c.ni.sleep(f)
		return c.Conn.Write(b)
	case PartialWrite:
		if half := len(b) / 2; half > 0 {
			c.Conn.Write(b[:half])
		}
		c.Close()
		return len(b), nil // the lie: the caller believes the frame shipped
	case CorruptFrame:
		cp := append([]byte(nil), b...)
		if len(cp) > 0 {
			cp[c.ni.index(len(cp))] = 0x00
		}
		return c.Conn.Write(cp)
	case NetPartition:
		c.partitioned.Store(true)
		return len(b), nil
	}
	return c.Conn.Write(b)
}

// blockUntilClosed parks a partitioned read until someone closes the
// connection (the coordinator's watchdog does, via Kill).
func (c *faultyConn) blockUntilClosed() (int, error) {
	<-c.cut
	return 0, net.ErrClosed
}

func (c *faultyConn) Close() error {
	c.closeOnce.Do(func() { close(c.cut) })
	return c.Conn.Close()
}

// ParseNetSpec parses a network fault plan from the shared -inject flag
// grammar — semicolon-separated faults, each a kind with optional
// colon-separated key=value parameters:
//
//	kind[:key=value[:key=value...]][;kind...]
//
// Kinds: conn-kill, latency, partial-write, corrupt-frame, partition.
// Keys: prob, first, delay, jitter (durations use time.ParseDuration).
//
// Example: "conn-kill:prob=0.05:first=200;latency:prob=0.2:delay=5ms".
// Returns nil for an empty spec.
func ParseNetSpec(spec string, seed int64) (*NetPlan, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	plan := &NetPlan{Seed: seed}
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		f, err := parseNetFault(part)
		if err != nil {
			return nil, fmt.Errorf("faultinject: net fault spec %q: %w", part, err)
		}
		plan.Faults = append(plan.Faults, f)
	}
	if len(plan.Faults) == 0 {
		return nil, nil
	}
	return plan, nil
}

func parseNetFault(s string) (NetFault, error) {
	fields := strings.Split(s, ":")
	f := NetFault{Prob: 1}
	switch fields[0] {
	case "conn-kill":
		f.Kind = ConnKill
	case "latency":
		f.Kind = NetLatency
	case "partial-write":
		f.Kind = PartialWrite
	case "corrupt-frame":
		f.Kind = CorruptFrame
	case "partition":
		f.Kind = NetPartition
	default:
		return f, fmt.Errorf("unknown net fault kind %q", fields[0])
	}
	for _, kv := range fields[1:] {
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return f, fmt.Errorf("parameter %q is not key=value", kv)
		}
		var err error
		switch key {
		case "prob":
			f.Prob, err = strconv.ParseFloat(val, 64)
		case "first":
			var n uint64
			n, err = strconv.ParseUint(val, 0, 64)
			f.FirstOps = n
		case "delay":
			f.Delay, err = time.ParseDuration(val)
		case "jitter":
			f.Jitter, err = time.ParseDuration(val)
		default:
			return f, fmt.Errorf("unknown parameter %q", key)
		}
		if err != nil {
			return f, fmt.Errorf("parameter %s: %w", key, err)
		}
	}
	return f, nil
}
