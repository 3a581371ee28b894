package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"levioso/internal/engine"
)

// workload is one traffic mix; BENCHMARK.json and bench/README.md say why
// each was chosen. prepare builds the load generator and its inputs, untimed.
type workload struct {
	name    string
	unit    string // what ops_per_s counts
	wait    string // what p50_ms times
	prepare func(ctx context.Context, o *options) (instance, error)
}

// instance is one workload's load generator with its prepared inputs, and
// the system under test it starts. Its methods are called in order: start
// and stop setupReps times (the last start stays up), warm, measure (once,
// or twice in a traced run), check, layerMetrics in a traced run, stop.
type instance interface {
	// start sets up the system under test; setup_s times it.
	start(ctx context.Context) error
	// stop tears down what a successful start set up.
	stop()
	// warm runs the untimed warm-up phase.
	warm(ctx context.Context) error
	// measure runs operations until stop, recording each into rec; with tr
	// non-nil it also records spans around the benchmark's own calls.
	measure(ctx context.Context, stop time.Time, rec *recorder, tr *tracer) error
	// check verifies every output produced so far against the reference
	// model and returns the number of mismatches.
	check() int
	// stages names the obs stage histograms the instance's layers record
	// into, for the traced run's self-time table.
	stages() []stage
	// layerMetrics reports the path metrics of this workload's layers.
	layerMetrics() map[string]float64
	// notes returns extra report lines for the untraced output.
	notes(elapsed time.Duration) []string
}

var allWorkloads = []workload{
	{name: "sweep", unit: "cells", wait: "pass", prepare: prepareSweep},
	{name: "serve-source", unit: "requests", wait: "request", prepare: prepareServeSource},
	{name: "batch-remote", unit: "cells", wait: "batch", prepare: prepareBatchRemote},
	{name: "fuzz-campaign", unit: "cases", wait: "case", prepare: prepareFuzzCampaign},
}

// probesEntry names the layer probes' results in an all-workload record.
const probesEntry = "probes"

func workloadNames() []string {
	var out []string
	for _, w := range allWorkloads {
		out = append(out, w.name)
	}
	return out
}

func workloadByName(name string) (workload, bool) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics of an untraced run. BENCHMARK.json carries the
// same names with their directions and bounds.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "rss_mb", unit: "MiB"},
	{name: "ops_per_s", unit: "1/s"},
	{name: "p50_ms", unit: "ms"},
}

// Layer probe and stage names, shared by the probes and the metric list.
var (
	cpuStages  = []string{"fetch", "rename", "issue", "execute", "complete", "commit", "idleskip"}
	transports = []string{"inproc", "pipe", "proc", "tcp"}
	cellKinds  = []string{"trivial", "typical"}
)

// perLayer lists the metrics of a traced run. Probe metrics come from the
// layer probes (runProbes), run once per traced invocation. Path metrics come
// from a workload's own traced phase and read 0 in the traced runs of
// workloads that do not reach that layer. Every time is a probe metric, so
// each traced run measures every time it reports.
func perLayer() []metricDef {
	var out []metricDef
	add := func(unit string, names ...string) {
		for _, n := range names {
			out = append(out, metricDef{n, unit})
		}
	}
	// Probe metrics.
	for _, p := range engine.EvalPolicies() {
		add("ns", "cpu.ns_per_cycle."+p)
	}
	add("count", "cpu.allocs_per_inst")
	add("B", "cpu.bytes_per_inst")
	for _, s := range cpuStages {
		add("%", "cpu.stage_pct."+s)
	}
	add("us", "cpu.new_us")
	add("%", "cpu.coverage_overhead_pct")
	add("us", "engine.compile_us", "engine.annotate_us", "engine.cachekey_us", "engine.load_us")
	add("ns", "engine.reference_ns_per_inst")
	add("ms", "harness.cell_ms_mean")
	add("count", "harness.retries")
	add("us", "serve.handler_us_p50", "serve.loopback_us_p50")
	for _, t := range transports {
		for _, k := range cellKinds {
			add("us", "dispatch.cell_overhead_us."+t+"."+k)
		}
	}
	add("us", "dispatch.cache_hit_us", "dispatch.singleflight_us")
	add("us", "fuzz.generate_us")
	add("ms", "fuzz.oracles_ms")
	add("count", "fuzz.execs_per_case")
	add("ms", "fuzz.campaign_self_ms")
	add("bits", "fuzz.cov_bits")
	add("ms", "journal.write_atomic_ms")
	add("B", "journal.state_bytes")
	add("%", "model.levioso_overhead_pct")
	// Path metrics.
	add("ratio", "serve.cache_hit_ratio")
	add("count", "serve.rejected")
	add("count", "dispatch.dedup_hits")
	add("ratio", "dispatch.cache_hit_ratio")
	add("count", "dispatch.retries", "dispatch.shed")
	add("%", "trace.overhead_pct")
	return out
}

// runWorkload prepares w, starts its system setupReps times (setup_s is the
// median), warms it, measures it for o.seconds, checks every output, and
// returns the result line. A traced run measures half the time untraced and
// half traced and reports the workload's path metrics; the layer probes are
// the caller's.
func runWorkload(ctx context.Context, w workload, o options, stdout io.Writer) (result, error) {
	h := host()
	fmt.Fprintf(stdout, "levperf %s: seed %d, %gs, trace=%d (nproc %d, GOMAXPROCS %d, %s)\n",
		w.name, o.seed, o.seconds, boolInt(o.trace), h.NumCPU, h.GOMAXPROCS, h.GoVersion)
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return result{}, err
	}
	if o.spans == "" {
		o.spans = filepath.Join(o.workDir, "levperf-spans-"+w.name+".json")
	}
	// The workload's own files (campaign directories) live in a directory
	// removed when the run ends.
	tmp, err := os.MkdirTemp(o.workDir, w.name+"-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(tmp)
	o.workDir = tmp

	inst, err := w.prepare(ctx, &o)
	if err != nil {
		return result{}, fmt.Errorf("prepare: %w", err)
	}
	// Each set-up is rescaled by the yardstick runs on either side of it.
	y := newYardstick()
	var setups, rawSetups []float64
	before := y.run()
	for i := 0; i < max(o.sizes.setupReps, 1); i++ {
		if i > 0 {
			inst.stop()
		}
		// Collect the previous set-up's garbage first, so no set-up pays
		// for another's.
		runtime.GC()
		t0 := time.Now()
		if err := inst.start(ctx); err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		d := time.Since(t0).Seconds()
		after := y.run()
		setups = append(setups, d*scale(before, after))
		rawSetups = append(rawSetups, d)
		before = after
	}
	defer inst.stop()
	if err := inst.warm(ctx); err != nil {
		return result{}, fmt.Errorf("warm-up: %w", err)
	}
	if o.trace {
		return runTraced(ctx, w, inst, o, y, stdout)
	}
	return runUntraced(ctx, w, inst, o, y, setups, rawSetups, stdout)
}

// runUntraced measures the end-to-end metrics.
func runUntraced(ctx context.Context, w workload, inst instance, o options, y *yardstick, setups, rawSetups []float64, stdout io.Writer) (result, error) {
	// Start the timed phase from a collected heap with freed memory returned
	// to the OS, so rss_mb reflects the working set of the timed phase, not
	// the garbage of repeated set-ups.
	debug.FreeOSMemory()
	rss := sampleRSS()
	rec, err := measure(ctx, inst, o.seconds, nil, y)
	rssMiB := rss.done()
	if err != nil {
		return result{}, err
	}
	mism := inst.check()
	res := result{Attempted: rec.units, Failed: rec.failed + mism, Metrics: map[string]metric{}}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	waits, rawWaits := rec.waitMS(), rec.rawWaitMS()
	vals := map[string]float64{
		"setup_s":   median(setups),
		"rss_mb":    rssMiB,
		"ops_per_s": rec.rate(),
		"p50_ms":    median(waits),
	}
	for _, d := range endToEnd {
		res.Metrics[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	yards := rec.yardMS()
	fmt.Fprintf(stdout, "  host: yardstick median %.4g ms over %d runs %s (nominal %v); times below are rescaled to nominal, host times in brackets\n",
		median(yards), len(yards), spanOf(yards), nominalYardstick)
	fmt.Fprintf(stdout, "  %-12s %12.6g s    median of %d set-ups [%.6g s]\n", "setup_s", vals["setup_s"], len(setups), median(rawSetups))
	fmt.Fprintf(stdout, "  %-12s %12.6g MiB  median resident set size in the timed phase (peak of the whole process %.4g MiB)\n",
		"rss_mb", vals["rss_mb"], statusMiB("VmHWM"))
	fmt.Fprintf(stdout, "  %-12s %12.6g 1/s  median over windows of >= %v; %d %s in %.2f s [%.6g 1/s in %.2f s]\n", "ops_per_s", vals["ops_per_s"],
		rateWindow, rec.units, w.unit, rec.elapsed().Seconds(), rec.rawRate(), rec.rawElapsed().Seconds())
	fmt.Fprintf(stdout, "  %-12s %12.6g ms   n=%d %s%s [%.6g ms]\n", "p50_ms", vals["p50_ms"], len(waits), w.wait, tails(waits), median(rawWaits))
	for _, n := range inst.notes(rec.elapsed()) {
		fmt.Fprintf(stdout, "  %s\n", n)
	}
	fmt.Fprintf(stdout, "  check: attempted %d, failed %d (%d output mismatches), fail_ratio %.4g\n",
		res.Attempted, res.Failed, mism, float64(res.Failed)/float64(max(res.Attempted, 1)))
	return res, nil
}

// runTraced measures half the time untraced and half with spans, prints the
// self-time table, writes the spans, and reports the workload's path metrics
// and the tracing overhead.
func runTraced(ctx context.Context, w workload, inst instance, o options, y *yardstick, stdout io.Writer) (result, error) {
	plain, err := measure(ctx, inst, o.seconds/2, nil, y)
	if err != nil {
		return result{}, err
	}
	tr := newTracer()
	before := readStages(inst.stages())
	traced, err := measure(ctx, inst, o.seconds/2, tr, y)
	if err != nil {
		return result{}, err
	}
	busy := stageDelta(before, readStages(inst.stages()))
	mism := inst.check()
	res := result{Attempted: plain.units + traced.units, Failed: plain.failed + traced.failed + mism, Metrics: map[string]metric{}}
	res.Correct = res.Failed == 0 && res.Attempted > 0

	spans := tr.snapshot()
	rows := selfTimes(spans, busy)
	printSelfTimes(stdout, w.name, rows, countRoots(spans), traced.rawElapsed())
	if err := writeSpans(o.spans, w.name, o.seed, spans, rows); err != nil {
		return result{}, err
	}
	fmt.Fprintf(stdout, "  spans: %d written to %s\n", len(spans), o.spans)

	vals := inst.layerMetrics()
	if vals == nil {
		vals = map[string]float64{}
	}
	vals["trace.overhead_pct"] = 100 * (plain.rate()/traced.rate() - 1)
	units := map[string]string{}
	for _, d := range perLayer() {
		units[d.name] = d.unit
	}
	for k, v := range vals {
		res.Metrics[k] = metric{Value: v, Unit: units[k]}
	}
	fmt.Fprintf(stdout, "  path metrics (untraced %.4g %s/s, traced %.4g %s/s):\n", plain.rate(), w.unit, traced.rate(), w.unit)
	printMetrics(stdout, res.Metrics)
	fmt.Fprintf(stdout, "  check: attempted %d, failed %d (%d output mismatches)\n", res.Attempted, res.Failed, mism)
	return res, nil
}

// withProbes runs the layer probes and adds their metrics and checks to a
// traced result; every per-layer metric not measured reads 0.
func withProbes(ctx context.Context, res result, o options, stdout io.Writer) (result, error) {
	pr, err := probeResult(ctx, o, stdout)
	if err != nil {
		return result{}, err
	}
	res.Attempted += pr.Attempted
	res.Failed += pr.Failed
	res.Correct = res.Correct && pr.Correct
	for _, d := range perLayer() {
		m, ok := res.Metrics[d.name]
		if pm, probed := pr.Metrics[d.name]; probed {
			m, ok = pm, true
		}
		if !ok {
			m = metric{Unit: d.unit}
		}
		res.Metrics[d.name] = m
	}
	return res, nil
}

// probeResult runs the layer probes and returns their metrics and checks as
// one result.
func probeResult(ctx context.Context, o options, stdout io.Writer) (result, error) {
	vals, checked, bad, err := runProbes(ctx, &o, stdout)
	if err != nil {
		return result{}, fmt.Errorf("probes: %w", err)
	}
	res := result{Correct: bad == 0 && checked > 0, Attempted: checked, Failed: bad, Metrics: map[string]metric{}}
	for _, d := range perLayer() {
		if v, ok := vals[d.name]; ok {
			res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		}
	}
	fmt.Fprintf(stdout, "  probe metrics:\n")
	printMetrics(stdout, res.Metrics)
	fmt.Fprintf(stdout, "  probe checks: %d, failed %d\n", checked, bad)
	return res, nil
}

func printMetrics(w io.Writer, ms map[string]metric) {
	for _, name := range sortedKeys(ms) {
		fmt.Fprintf(w, "    %-36s %14.6g %s\n", name, ms[name].Value, ms[name].Unit)
	}
}

// tails renders the tail percentiles that have at least ten samples beyond
// them; shorter runs have none.
func tails(ms []float64) string {
	var b strings.Builder
	for _, q := range []float64{0.90, 0.95, 0.99} {
		if float64(len(ms))*(1-q) >= 10 {
			fmt.Fprintf(&b, ", p%.0f %.4g ms", 100*q, quantile(ms, q))
		}
	}
	return b.String()
}

func spanOf(xs []float64) string {
	if len(xs) == 0 {
		return ""
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return fmt.Sprintf("[%.4g .. %.4g]", s[0], s[len(s)-1])
}

// median returns the middle value (the mean of the two middle values for an
// even count), as Python's statistics.median does; 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile is the linear-interpolation quantile of xs (0 <= q <= 1).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// quartiles returns Q1, Q2 and Q3 the way Python's
// statistics.quantiles(xs, n=4) does (the default "exclusive" method), so
// spreads computed here match the ones the benchmark is judged by.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	m := n + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// statusMiB reads one size field ("VmRSS", "VmHWM") of /proc/self/status in
// MiB; 0 where /proc is unavailable.
func statusMiB(field string) float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == field+":" {
			if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// rssSampler samples the resident set size every 50 ms until done is
// called. Where /proc is unavailable it samples the memory the Go runtime
// has obtained from the OS instead.
type rssSampler struct {
	stop    chan struct{}
	exited  chan struct{}
	samples []float64
}

func sampleRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), exited: make(chan struct{})}
	go func() {
		defer close(s.exited)
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			v := statusMiB("VmRSS")
			if v == 0 {
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				v = float64(ms.Sys) / (1 << 20)
			}
			s.samples = append(s.samples, v)
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// done stops the sampler and returns the median sample.
func (s *rssSampler) done() float64 {
	close(s.stop)
	<-s.exited
	return median(s.samples)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
