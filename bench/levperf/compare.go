package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// benchSpec is the part of BENCHMARK.json that -compare and the smoke test
// read.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"` // end-to-end metrics only
}

// exactMetrics are deterministic for a given seed and commit: runs with the
// same seed must agree bit for bit, whatever the host.
var exactMetrics = map[string]bool{
	"model.levioso_overhead_pct": true,
	"fuzz.cov_bits":              true,
	"journal.state_bytes":        true,
}

func loadSpec(path string) (benchSpec, error) {
	var s benchSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// series is one metric's values over a set of runs, in file order, with the
// seed of each run.
type series struct {
	vals  []float64
	seeds []uint64
}

// bySeed groups the values by seed, each group in file order.
func (s *series) bySeed() map[uint64][]float64 {
	out := map[uint64][]float64{}
	for i, v := range s.vals {
		out[s.seeds[i]] = append(out[s.seeds[i]], v)
	}
	return out
}

// loadRuns reads an -out file: one record per line. It returns, per
// workload (or "probes") and metric, the values in run order.
func loadRuns(path string) (map[string]map[string]*series, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string]*series{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for line := 1; sc.Scan(); line++ {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		for w, res := range rec.Workloads {
			if out[w] == nil {
				out[w] = map[string]*series{}
			}
			for name, m := range res.Metrics {
				s := out[w][name]
				if s == nil {
					s = &series{}
					out[w][name] = s
				}
				s.vals = append(s.vals, m.Value)
				s.seeds = append(s.seeds, rec.Seed)
			}
		}
	}
	return out, sc.Err()
}

// compareFiles compares two sets of runs of the same benchmark, one row per
// workload and metric: median and quartiles per side, the spread (IQR over
// median), the fraction of same-seed run pairs B wins, and a verdict. A
// metric whose spread exceeds its bound on either side is unresolved unless
// every run of one side beats every run of the other. Exact metrics must
// match bit for bit between runs with the same seed. Rows where every value
// on both sides is 0 (a layer the workload does not reach) are left out. It
// returns 1 if any metric regressed beyond its bound or an exact metric
// differs.
func compareFiles(specPath, pathA, pathB string, stdout, stderr io.Writer) int {
	spec, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintln(stderr, "levperf:", err)
		return 1
	}
	a, err := loadRuns(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "levperf:", err)
		return 1
	}
	b, err := loadRuns(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "levperf:", err)
		return 1
	}
	fmt.Fprintf(stdout, "A = %s, B = %s\n", pathA, pathB)
	fmt.Fprintf(stdout, "%-14s %-34s %5s %-30s %-30s %8s %6s  %s\n", "workload", "metric", "runs",
		"A median [Q1, Q3] spread", "B median [Q1, Q3] spread", "B-A", "B wins", "verdict")
	code := 0
	for _, w := range append(workloadNames(), probesEntry) {
		if a[w] == nil || b[w] == nil {
			continue
		}
		for _, m := range append(append([]specMetric(nil), spec.EndToEnd...), spec.PerLayer...) {
			sa, sb := a[w][m.Name], b[w][m.Name]
			if sa == nil || sb == nil || allZero(sa.vals) && allZero(sb.vals) {
				continue
			}
			verdict := judge(m, sa, sb)
			if verdict == "REGRESSED" || verdict == "MISMATCH" {
				code = 1
			}
			qa1, ma, qa3 := quartiles(sa.vals)
			qb1, mb, qb3 := quartiles(sb.vals)
			wins, pairs := winFraction(m.Better, sa, sb)
			fmt.Fprintf(stdout, "%-14s %-34s %2d/%-2d %-30s %-30s %7.2f%% %6s  %s\n", w, m.Name,
				len(sa.vals), len(sb.vals),
				fmt.Sprintf("%.5g [%.5g, %.5g] %.3f", ma, qa1, qa3, spread(sa.vals)),
				fmt.Sprintf("%.5g [%.5g, %.5g] %.3f", mb, qb1, qb3, spread(sb.vals)),
				100*relDiff(ma, mb), fmt.Sprintf("%d/%d", wins, pairs), verdict)
		}
	}
	return code
}

func allZero(xs []float64) bool {
	for _, x := range xs {
		if x != 0 {
			return false
		}
	}
	return true
}

// spread is the interquartile range over the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

func relDiff(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	return (b - a) / math.Abs(a)
}

// better reports whether x beats y in the metric's direction.
func better(dir string, x, y float64) bool {
	if dir == "higher" {
		return x > y
	}
	return x < y
}

// winFraction pairs the runs of A and B that used the same seed (the k-th
// run of a seed in A with the k-th in B) and returns how many pairs B wins
// and how many pairs there are; ties count for neither side.
func winFraction(dir string, a, b *series) (wins, pairs int) {
	bs := b.bySeed()
	for seed, av := range a.bySeed() {
		bv := bs[seed]
		for k := 0; k < min(len(av), len(bv)); k++ {
			pairs++
			if better(dir, bv[k], av[k]) {
				wins++
			}
		}
	}
	return wins, pairs
}

func judge(m specMetric, a, b *series) string {
	if exactMetrics[m.Name] {
		bs := b.bySeed()
		common := false
		for seed, av := range a.bySeed() {
			bv, ok := bs[seed]
			if !ok {
				continue
			}
			common = true
			for _, x := range append(av, bv...) {
				if x != av[0] {
					return "MISMATCH"
				}
			}
		}
		if !common {
			return "no common seed"
		}
		return "exact"
	}
	if m.Bound == nil {
		return "-"
	}
	bound := *m.Bound
	_, ma, _ := quartiles(a.vals)
	_, mb, _ := quartiles(b.vals)
	worse := relDiff(ma, mb)
	if m.Better == "higher" {
		worse = -worse
	}
	if spread(a.vals) > bound || spread(b.vals) > bound {
		switch {
		case allBeat(m.Better, b.vals, a.vals):
			return "better (every run)"
		case allBeat(m.Better, a.vals, b.vals):
			return "worse (every run)"
		}
		return "unresolved"
	}
	q1, _, q3 := quartiles(a.vals)
	wins, pairs := winFraction(m.Better, a, b)
	switch {
	case worse > bound:
		return "REGRESSED"
	case pairs > 0 && float64(wins) >= 0.9*float64(pairs) && math.Abs(mb-ma) > q3-q1:
		return "improved"
	}
	return "within bound"
}

// allBeat reports whether every value of x beats every value of y.
func allBeat(dir string, x, y []float64) bool {
	for _, u := range x {
		for _, v := range y {
			if !better(dir, u, v) {
				return false
			}
		}
	}
	return len(x) > 0 && len(y) > 0
}
