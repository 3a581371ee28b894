package main

import (
	"context"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// Host time on the machines levperf runs on moves with the host's other
// tenants: on the 2-vCPU VM the baselines were recorded on, consecutive
// 15-second runs of one workload and seed differed by up to 20%, and the
// same workload ran 20-30% faster or slower from one ten-minute stretch to
// the next. Longer runs do not remove that. So the timed phase follows the
// host's speed with a yardstick: a fixed piece of work, the same in every
// run and every commit, timed about twice a second between operations while
// no operation is in flight. Every timed interval is rescaled by
// nominalYardstick over the yardstick's time around it, so the end-to-end
// times read as if the host had stayed at one speed. The raw values are
// printed next to them.

// yardstick sorts copies of one seeded array with the standard library: no
// allocation, nothing from the packages under test. Of the fixed workloads
// tried (a sort, DEFLATE compression, a toy bytecode interpreter, pointer
// chases over 2 and 16 MiB, a 32 MiB copy, go/parser on a large file, an
// encoding/json round trip), its times followed the sweep's slowdowns most
// closely; none, alone or paired, followed them fully.
type yardstick struct {
	orig, buf []int
}

// nominalYardstick is about what one yardstick run took on the baseline VM
// when its host was quiet; it only sets the scale of the normalized times.
const nominalYardstick = 33 * time.Millisecond

// yardstickEvery is how often the timed phase pauses for the yardstick. The
// pauses take up to a tenth of the phase's host time; they count for none of
// its nominal time.
const yardstickEvery = 500 * time.Millisecond

// rateWindow is the shortest stretch of the timed phase whose throughput
// ops_per_s takes the median of (see recorder.rate).
const rateWindow = time.Second

func newYardstick() *yardstick {
	r := rand.New(rand.NewSource(1))
	y := &yardstick{orig: make([]int, 1<<17), buf: make([]int, 1<<17)}
	for i := range y.orig {
		y.orig[i] = r.Int()
	}
	return y
}

// run does the yardstick's work once and returns how long it took.
func (y *yardstick) run() time.Duration {
	t0 := time.Now()
	for i := 0; i < 3; i++ {
		copy(y.buf, y.orig)
		sort.Ints(y.buf)
	}
	return time.Since(t0)
}

// scale is the factor that turns host time measured between two yardstick
// runs of length a and b into nominal time.
func scale(a, b time.Duration) float64 {
	return 2 * float64(nominalYardstick) / float64(a+b)
}

// segment is a stretch of the timed phase between two yardstick runs, with
// the factor that turns its host time into nominal time.
type segment struct {
	start, end time.Time
	scale      float64
}

// recorder collects the timed operations of one measured phase. A wait is
// one thing a caller waits for: a request, a batch, a sweep pass, a fuzz
// case. Operations run through op (or call tick between themselves when
// only one goroutine runs them), which pauses for the yardstick when it is
// due; the pauses are not part of any segment, so they count for nothing.
type recorder struct {
	mu     sync.Mutex
	start  time.Time
	end    time.Time // end of the last wait
	waits  []wait    // every successful wait
	units  int       // work units completed (ops_per_s counts these)
	failed int       // work units that failed

	y        *yardstick
	gate     sync.RWMutex // held for reading by every operation in flight
	segStart time.Time    // start of the open segment; guarded by mu
	lastY    time.Duration
	segs     []segment
	yards    []time.Duration
}

// wait is one successful wait and the work units it completed.
type wait struct {
	t0, t1 time.Time
	units  int
}

func newRecorder(y *yardstick) *recorder {
	r := &recorder{y: y}
	r.lastY = y.run()
	r.yards = append(r.yards, r.lastY)
	r.start = time.Now()
	r.end = r.start
	r.segStart = r.start
	return r
}

// add records one wait that ran from t0 to t1 and carried units work units,
// failed of which failed. A failed wait's latency is not recorded: a failure
// misses any latency limit, and is counted in failed instead.
func (r *recorder) add(t0, t1 time.Time, units, failed int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if failed == 0 {
		r.waits = append(r.waits, wait{t0, t1, units})
	}
	r.units += units
	r.failed += failed
	if t1.After(r.end) {
		r.end = t1
	}
}

// op runs one operation, then pauses for the yardstick if it is due.
func (r *recorder) op(f func() error) error {
	r.gate.RLock()
	err := f()
	r.gate.RUnlock()
	r.tick()
	return err
}

// tick runs the yardstick if a second has passed since the last one, once
// every operation in flight has ended.
func (r *recorder) tick() {
	if !r.due() {
		return
	}
	r.gate.Lock()
	defer r.gate.Unlock()
	if r.due() {
		r.cut()
	}
}

func (r *recorder) due() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return time.Since(r.segStart) >= yardstickEvery
}

// cut closes the open segment with a yardstick run. No operation may be in
// flight.
func (r *recorder) cut() {
	end := time.Now()
	d := r.y.run()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.segs = append(r.segs, segment{r.segStart, end, scale(r.lastY, d)})
	r.yards = append(r.yards, d)
	r.lastY = d
	r.segStart = time.Now()
}

// close ends the phase with a last yardstick run; call it once every
// operation has returned.
func (r *recorder) close() { r.cut() }

// nominal returns the nominal length of the interval [t0, t1]: its overlap
// with each segment, rescaled by the segment's factor.
func (r *recorder) nominal(t0, t1 time.Time) time.Duration {
	var d float64
	for _, s := range r.segs {
		a, b := maxTime(t0, s.start), minTime(t1, s.end)
		if b.After(a) {
			d += float64(b.Sub(a)) * s.scale
		}
	}
	return time.Duration(d)
}

// elapsed is the nominal length of the phase up to the end of its last wait;
// rawElapsed is its host time, pauses included.
func (r *recorder) elapsed() time.Duration    { return r.nominal(r.start, r.end) }
func (r *recorder) rawElapsed() time.Duration { return r.end.Sub(r.start) }

// rate is the median throughput over consecutive windows of the phase, each
// at least rateWindow of nominal time and ending where a wait ends, in work
// units per nominal second; a trailing window shorter than rateWindow is
// left out. A sweep pass is longer than rateWindow, so there a window is one
// pass. The median keeps the rare operations that take twenty times the
// typical one (a fuzz case mutated from a long-running corpus entry) from
// moving the rate with whichever seed happens to draw them.
func (r *recorder) rate() float64 {
	ws := append([]wait(nil), r.waits...)
	sort.Slice(ws, func(i, j int) bool { return ws[i].t1.Before(ws[j].t1) })
	var rates []float64
	from, units := r.start, 0
	for _, w := range ws {
		units += w.units
		if d := r.nominal(from, w.t1); d >= rateWindow {
			rates = append(rates, perSecond(units, d))
			from, units = w.t1, 0
		}
	}
	if len(rates) == 0 {
		return perSecond(r.units, r.elapsed())
	}
	return median(rates)
}

func (r *recorder) rawRate() float64 { return perSecond(r.units, r.rawElapsed()) }

func perSecond(n int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / d.Seconds()
}

// waitMS returns the nominal wait latencies in milliseconds; rawWaitMS
// their host time.
func (r *recorder) waitMS() []float64 {
	return r.waitsIn(r.nominal)
}

func (r *recorder) rawWaitMS() []float64 {
	return r.waitsIn(func(t0, t1 time.Time) time.Duration { return t1.Sub(t0) })
}

func (r *recorder) waitsIn(length func(t0, t1 time.Time) time.Duration) []float64 {
	out := make([]float64, len(r.waits))
	for i, w := range r.waits {
		out[i] = float64(length(w.t0, w.t1)) / float64(time.Millisecond)
	}
	return out
}

// yardMS returns every yardstick time of the phase in milliseconds.
func (r *recorder) yardMS() []float64 {
	out := make([]float64, len(r.yards))
	for i, d := range r.yards {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

func measure(ctx context.Context, inst instance, seconds float64, tr *tracer, y *yardstick) (*recorder, error) {
	rec := newRecorder(y)
	stop := rec.start.Add(time.Duration(seconds * float64(time.Second)))
	err := inst.measure(ctx, stop, rec, tr)
	rec.close()
	return rec, err
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

func minTime(a, b time.Time) time.Time {
	if a.Before(b) {
		return a
	}
	return b
}
