package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"levioso/internal/obs"
)

// Tracing lives entirely in the benchmark: spans wrap the benchmark's own
// calls into each package's public functions (a client request, the serve
// handler, a sweep pass, a fuzz case), and the time spent inside those calls
// is split further by the stage histograms the packages already record into
// their obs registries (engine_stage_seconds, harness_stage_seconds).

// span is one timed call. Spans of one operation share Op, the id of the
// operation's root span.
type span struct {
	ID     uint64 `json:"id"`
	Op     uint64 `json:"op"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the traced phase began
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0  time.Time
	ids atomic.Uint64
	mu  sync.Mutex
	all []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// id reserves a span id, so children can name their parent before the
// parent span ends.
func (t *tracer) id() uint64 { return t.ids.Add(1) }

// add records a finished span. op 0 makes the span the root of its own
// operation.
func (t *tracer) add(id, op, parent uint64, name string, start, end time.Time) {
	if op == 0 {
		op = id
	}
	s := span{ID: id, Op: op, Parent: parent, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()}
	t.mu.Lock()
	t.all = append(t.all, s)
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.all...)
}

// spanHeader carries "op.parent" from the benchmark's HTTP client to its
// wrapper around the serve handler, so the handler span joins the client's
// operation. levserve ignores the header.
const spanHeader = "X-Levperf-Span"

func formatSpanHeader(op, parent uint64) string {
	return strconv.FormatUint(op, 10) + "." + strconv.FormatUint(parent, 10)
}

func parseSpanHeader(v string) (op, parent uint64) {
	a, b, ok := strings.Cut(v, ".")
	if !ok {
		return 0, 0
	}
	op, _ = strconv.ParseUint(a, 10, 64)
	parent, _ = strconv.ParseUint(b, 10, 64)
	return op, parent
}

func countRoots(spans []span) int {
	n := 0
	for _, s := range spans {
		if s.Parent == 0 {
			n++
		}
	}
	return n
}

// stage names one series of a package's obs stage histogram — for example
// engine_stage_seconds{stage="simulate",outcome="ok"} in the levserve
// registry — and the layer it runs inside.
type stage struct {
	reg    *obs.Registry
	family string // component: "engine" or "harness"
	stage  string
	label  string // row name in the self-time table
	parent string // row name of the layer that calls it
}

// engineStages lists every engine pipeline stage in reg, as children of
// parent; prefix distinguishes registries that record the same stages.
func engineStages(reg *obs.Registry, prefix, parent string) []stage {
	var out []stage
	for _, s := range []string{"load", "compile", "assemble", "annotate", "cachekey", "simulate", "reference", "verify"} {
		out = append(out, stage{reg: reg, family: "engine", stage: s, label: prefix + "engine." + s, parent: parent})
	}
	return out
}

// stageSum is a stage's accumulated successful time and count.
type stageSum struct {
	stage
	sum   float64 // seconds
	count uint64
}

// snapshot reads the stage's successful-outcome histogram.
func (s stage) snapshot() obs.HistSnapshot {
	return s.reg.HistogramVec(s.family+"_stage_seconds",
		s.family+" pipeline stage duration by stage and outcome",
		obs.LatencyBuckets(), "stage", "outcome").With(s.stage, obs.OutcomeOK).Snapshot()
}

func readStages(st []stage) []stageSum {
	out := make([]stageSum, len(st))
	for i, s := range st {
		h := s.snapshot()
		out[i] = stageSum{stage: s, sum: h.Sum, count: h.Count}
	}
	return out
}

func stageDelta(before, after []stageSum) []stageSum {
	out := make([]stageSum, len(after))
	for i := range after {
		out[i] = after[i]
		out[i].sum -= before[i].sum
		out[i].count -= before[i].count
	}
	return out
}

// layerRow is one line of the self-time table.
type layerRow struct {
	Name   string  `json:"name"`
	Parent string  `json:"parent,omitempty"`
	Count  uint64  `json:"count"`
	BusyMS float64 `json:"busy_ms"`
	SelfMS float64 `json:"self_ms"`
	// FanOut marks a layer whose children ran concurrently for longer than
	// the layer itself, so its self time is not defined and reads 0.
	FanOut bool `json:"fan_out,omitempty"`
}

// selfTimes builds the self-time table. A span's self time is its duration
// minus the part of its interval its child spans cover; a stage histogram
// has no intervals, so its summed busy time is taken off its parent's self
// time instead.
func selfTimes(spans []span, stages []stageSum) []layerRow {
	children := map[uint64][]span{}
	names := map[uint64]string{}
	for _, s := range spans {
		names[s.ID] = s.Name
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	rows := map[string]*layerRow{}
	var order []string
	row := func(name, parent string) *layerRow {
		r, ok := rows[name]
		if !ok {
			r = &layerRow{Name: name, Parent: parent}
			rows[name] = r
			order = append(order, name)
		}
		return r
	}
	for _, s := range spans {
		r := row(s.Name, names[s.Parent])
		d := float64(s.End-s.Start) / 1e6
		r.Count++
		r.BusyMS += d
		r.SelfMS += d - covered(s, children[s.ID])/1e6
	}
	for _, st := range stages {
		if st.count == 0 {
			continue
		}
		r := row(st.label, st.parent)
		r.Count += st.count
		r.BusyMS += st.sum * 1e3
		r.SelfMS += st.sum * 1e3
	}
	for _, st := range stages {
		if p, ok := rows[st.parent]; ok && st.count > 0 {
			p.SelfMS -= st.sum * 1e3
		}
	}
	// Order parents before children, siblings in first-seen order.
	var out []layerRow
	var walk func(parent string)
	walk = func(parent string) {
		for _, n := range order {
			r := rows[n]
			if r.Parent != parent {
				continue
			}
			if r.SelfMS < 0 {
				r.SelfMS, r.FanOut = 0, true
			}
			out = append(out, *r)
			walk(n)
		}
	}
	walk("")
	return out
}

// covered returns how many nanoseconds of s's interval its children cover.
func covered(s span, kids []span) float64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, s.Start), min(k.End, s.End)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	end = -1 << 62
	for _, x := range iv {
		if x[0] > end {
			total += x[1] - x[0]
			end = x[1]
		} else if x[1] > end {
			total += x[1] - end
			end = x[1]
		}
	}
	return float64(total)
}

func printSelfTimes(w io.Writer, workload string, rows []layerRow, ops int, wall time.Duration) {
	var total float64
	for _, r := range rows {
		total += r.SelfMS
	}
	fmt.Fprintf(w, "  self time, %s, traced phase: %d operations in %.2f s\n", workload, ops, wall.Seconds())
	fmt.Fprintf(w, "    %-28s %-20s %9s %12s %12s %7s\n", "layer", "parent", "count", "busy ms/op", "self ms/op", "self %")
	for _, r := range rows {
		per := func(v float64) float64 {
			if ops == 0 {
				return 0
			}
			return v / float64(ops)
		}
		pct := 0.0
		if total > 0 {
			pct = 100 * r.SelfMS / total
		}
		note := ""
		if r.FanOut {
			note = "  (children ran concurrently)"
		}
		parent := r.Parent
		if parent == "" {
			parent = "-"
		}
		fmt.Fprintf(w, "    %-28s %-20s %9d %12.4g %12.4g %6.1f%%%s\n", r.Name, parent, r.Count, per(r.BusyMS), per(r.SelfMS), pct, note)
	}
}

func writeSpans(path, workload string, seed uint64, spans []span, rows []layerRow) error {
	b, err := json.Marshal(struct {
		Workload string     `json:"workload"`
		Seed     uint64     `json:"seed"`
		Host     hostInfo   `json:"host"`
		Layers   []layerRow `json:"layers"`
		Spans    []span     `json:"spans"`
	}{workload, seed, host(), rows, spans})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
