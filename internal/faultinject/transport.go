package faultinject

import (
	"context"
	"sync"
	"time"

	"math/rand"

	"levioso/internal/dispatch"
	"levioso/internal/engine"
	"levioso/internal/simerr"
)

// TransportKind selects a dispatch-transport fault mechanism — the failure
// modes a coordinator sees from a real worker fleet, injected between the
// coordinator and an otherwise healthy worker.
type TransportKind int

const (
	// WorkerKill kills the worker mid-call: the result never arrives and
	// the coordinator must restart the worker and replay the cell.
	WorkerKill TransportKind = iota
	// WorkerStall hangs the call until the caller's context gives up (or
	// Delay elapses, when set) — a wedged process that is alive but mute.
	WorkerStall
	// CorruptResponse completes the real work, then destroys the reply in
	// flight: the coordinator sees a corrupt/truncated frame, exactly the
	// typed transport error the wire client produces for garbage bytes.
	CorruptResponse
	// DelayReply completes the call, then sits on the reply for Delay — a
	// slow network/pipe, food for Retry-After calibration.
	DelayReply
)

func (k TransportKind) String() string {
	switch k {
	case WorkerKill:
		return "worker-kill"
	case WorkerStall:
		return "worker-stall"
	case CorruptResponse:
		return "corrupt-response"
	case DelayReply:
		return "delay-reply"
	default:
		return "invalid"
	}
}

// TransportFault is one armed transport fault.
type TransportFault struct {
	Kind TransportKind
	// Prob is the per-Execute fire probability (seeded PRNG).
	Prob float64
	// FirstCalls arms the fault only on the first N Execute calls through
	// the plan (0 = every call) — the knob for fault storms that die down,
	// letting a bounded-completion-time chaos run provably drain.
	FirstCalls uint64
	// Delay bounds WorkerStall and sizes DelayReply. Zero means: stall
	// until the context gives up; delay replies by 1ms.
	Delay time.Duration
}

// TransportPlan is a reproducible storm of transport faults for one
// coordinator. The PRNG is seeded, so a given (plan, cell schedule) is as
// reproducible as goroutine interleaving allows — and the chaos oracle does
// not depend on *which* calls fault, only that every cell still completes
// with the fault-free answer.
type TransportPlan struct {
	Seed   int64
	Faults []TransportFault
}

// TransportInjector applies one TransportPlan to every worker a spawner
// produces. Shared across the fleet: the call counter and PRNG are global
// to the plan, so FirstCalls windows span workers.
type TransportInjector struct {
	mu     sync.Mutex
	rng    *rand.Rand
	faults []TransportFault
	calls  uint64
	fired  map[TransportKind]uint64
}

// NewTransport builds the injector for one coordinator's lifetime.
func NewTransport(plan TransportPlan) *TransportInjector {
	return &TransportInjector{
		rng:    rand.New(rand.NewSource(plan.Seed)),
		faults: plan.Faults,
		fired:  make(map[TransportKind]uint64),
	}
}

// Spawner wraps sp so every worker it produces — including coordinator
// restarts — runs behind the fault plan.
func (ti *TransportInjector) Spawner(sp dispatch.Spawner) dispatch.Spawner {
	return func(ctx context.Context) (dispatch.Worker, error) {
		w, err := sp(ctx)
		if err != nil {
			return nil, err
		}
		return &faultyWorker{Worker: w, ti: ti}, nil
	}
}

// Fired reports how many times each fault kind has fired, by kind name —
// chaos tests assert the storm actually happened.
func (ti *TransportInjector) Fired() map[string]uint64 {
	ti.mu.Lock()
	defer ti.mu.Unlock()
	out := make(map[string]uint64, len(ti.fired))
	for k, n := range ti.fired {
		out[k.String()] = n
	}
	return out
}

// pick rolls the dice for one Execute call. At most one fault fires per
// call (first armed match wins).
func (ti *TransportInjector) pick() (TransportFault, bool) {
	ti.mu.Lock()
	defer ti.mu.Unlock()
	ti.calls++
	for _, f := range ti.faults {
		if f.FirstCalls != 0 && ti.calls > f.FirstCalls {
			continue
		}
		if ti.rng.Float64() < f.Prob {
			ti.fired[f.Kind]++
			return f, true
		}
	}
	return TransportFault{}, false
}

// faultyWorker interposes on Execute; lifecycle calls pass through.
type faultyWorker struct {
	dispatch.Worker
	ti *TransportInjector
}

func (w *faultyWorker) Execute(ctx context.Context, c *dispatch.Cell) (*engine.Result, error) {
	f, fire := w.ti.pick()
	if !fire {
		return w.Worker.Execute(ctx, c)
	}
	switch f.Kind {
	case WorkerKill:
		w.Worker.Kill()
		return nil, simerr.New(simerr.KindTransport, "faultinject: worker killed mid-call")
	case WorkerStall:
		var timeout <-chan time.Time
		if f.Delay > 0 {
			t := time.NewTimer(f.Delay)
			defer t.Stop()
			timeout = t.C
		}
		select {
		case <-ctx.Done():
		case <-timeout:
		}
		return nil, simerr.New(simerr.KindTransport, "faultinject: worker stalled")
	case CorruptResponse:
		// Burn the real work — the worker did answer; the bytes died.
		if _, err := w.Worker.Execute(ctx, c); err != nil && !simerr.Transient(err) {
			// Don't mask a permanent cell failure behind a retryable
			// transport error: the retries would just re-fail.
			return nil, err
		}
		return nil, simerr.New(simerr.KindTransport, "faultinject: corrupt frame from worker")
	case DelayReply:
		res, err := w.Worker.Execute(ctx, c)
		d := f.Delay
		if d <= 0 {
			d = time.Millisecond
		}
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			return nil, simerr.New(simerr.KindTransport, "faultinject: reply delayed past caller: %v", ctx.Err())
		}
		return res, err
	}
	return w.Worker.Execute(ctx, c)
}
