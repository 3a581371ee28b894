// Command levperf is the repository benchmark: one command that drives four
// workloads through the public APIs of the internal packages, checks every
// output, and prints the end-to-end metrics a user of the system sees. A
// traced run adds spans around the benchmark's own calls into each layer, a
// self-time table, and the per-layer metrics that explain the end-to-end
// numbers. See bench/README.md for the workloads, the metrics and the
// layer → end-to-end map.
//
//	levperf --workload sweep --seed 1 --seconds 15 --trace 0
//	levperf -seed 1 -out runs.jsonl            all four, one child process each
//	levperf -seed 1 -trace 1                   all four traced, then the layer probes
//	levperf -compare a.jsonl b.jsonl           two sets of runs, per workload
//
// The last line of standard output of a single-workload run is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. With -trace 0 the
// metrics are the end-to-end metrics, with -trace 1 the per-layer metrics.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"

	"levioso/internal/dispatch"
)

// options configures one levperf run.
type options struct {
	seed    uint64
	seconds float64
	trace   bool
	spans   string // traced run: span file; "" picks one under workDir
	workDir string // scratch space (campaign dirs, profiles, spans)
	sizes   sizes
}

// sizes fixes how much work each phase does. Runs use defaultSizes; the smoke
// test shrinks them so every workload finishes in well under a second.
type sizes struct {
	setupReps    int // set-up repetitions per run; setup_s is their median
	sweepKernels int // suite kernels per sweep pass (0 = all twelve)
	serveWarm    int // warm-up requests before the timed phase
	servePool    int // distinct programs per serve-source client
	batchWarm    int // warm-up batches
	batchPool    int // distinct programs per batch-remote client
	fuzzCount    int // cases per campaign (the measured ones and the probe's)
	fuzzWarm     int // cases in the prepared campaign set-up reopens
	probeKernels int // suite kernels in the cpu probe pass (0 = all twelve)
	probeReps    int // repetitions of each micro-probe
	probeCases   int // fuzz cases judged by the fuzz probe
}

var defaultSizes = sizes{
	setupReps:  21,
	serveWarm:  50,
	servePool:  512,
	batchWarm:  8,
	batchPool:  256,
	fuzzCount:  20,
	fuzzWarm:   10,
	probeReps:  40,
	probeCases: 12,
}

// clients is the closed-loop client count of the HTTP workloads: two, so a
// request is always waiting for levserve's worker slot while another runs,
// and the load generator needs no more than two connections.
const clients = 2

// metric is one named value in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a single-workload run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one line of an -out file: one invocation, any number of
// workloads.
type record struct {
	Seed      uint64            `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Host      hostInfo          `json:"host"`
	Workloads map[string]result `json:"workloads"`
}

type hostInfo struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

func host() hostInfo {
	return hostInfo{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
}

func main() {
	// Measure on one CPU. The 2-vCPU VM the benchmark was sized on gets
	// between one and two CPUs' worth of time from its host, depending on the
	// host's other tenants: a thread that only read the clock lost 1-5% of
	// its time alone and 16-50% with a second one busy. See hosttime.go for
	// the rest of the host's noise.
	runtime.GOMAXPROCS(1)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	// The hidden worker mode is how the Proc transport probe spawns a
	// subprocess worker: this binary, speaking the dispatch wire protocol on
	// stdin/stdout.
	if len(args) == 1 && args[0] == "-worker" {
		if err := dispatch.ServeWorker(context.Background(), os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(stderr, "levperf worker:", err)
			return 1
		}
		return 0
	}

	fs := flag.NewFlagSet("levperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wname := fs.String("workload", "", "run one workload: "+strings.Join(workloadNames(), ", ")+" (empty: all four, each in its own child process)")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 15, "measured seconds per workload")
	trace := fs.Int("trace", 0, "1: traced run — spans, self-time table and per-layer metrics")
	spans := fs.String("spans", "", "traced run: write spans as JSON to this file (default .bench_build/levperf-spans-<workload>.json)")
	out := fs.String("out", "", "append this invocation's results to this file as one JSON line")
	compare := fs.Bool("compare", false, "compare two -out files: levperf -compare A B")
	spec := fs.String("spec", "BENCHMARK.json", "benchmark definition read by -compare (units, directions, bounds)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "levperf: -compare wants two result files")
			return 2
		}
		return compareFiles(*spec, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fs.Usage()
		return 2
	}
	o := options{
		seed: *seed, seconds: *seconds, trace: *trace == 1, spans: *spans,
		workDir: ".bench_build", sizes: defaultSizes,
	}
	if *wname == "" {
		return runAll(o, *out, stdout, stderr)
	}
	w, ok := workloadByName(*wname)
	if !ok {
		fmt.Fprintf(stderr, "levperf: unknown workload %q (have %s)\n", *wname, strings.Join(workloadNames(), ", "))
		return 2
	}
	res, err := runOne(context.Background(), w, o, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "levperf: %s: %v\n", w.name, err)
		return 1
	}
	if *out != "" {
		if err := appendRecord(*out, o, map[string]result{w.name: res}); err != nil {
			fmt.Fprintln(stderr, "levperf:", err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "levperf:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runOne is one run of one workload: with o.trace, its path metrics and
// every layer probe's.
func runOne(ctx context.Context, w workload, o options, stdout io.Writer) (result, error) {
	res, err := runWorkload(ctx, w, o, stdout)
	if err != nil || !o.trace {
		return res, err
	}
	return withProbes(ctx, res, o, stdout)
}

// runAll runs every workload, prints each report, and appends one record
// with all of them to out. An untraced run gives each workload its own child
// process, so rss_mb is per workload; a traced run, which reports no memory,
// runs them in this process and the layer probes once after them, recorded
// under "probes". It exits non-zero if any run or any check fails.
func runAll(o options, out string, stdout, stderr io.Writer) int {
	ctx := context.Background()
	results := map[string]result{}
	code := 0
	for _, w := range allWorkloads {
		var res result
		var err error
		if o.trace {
			wo := o
			if o.spans != "" {
				ext := filepath.Ext(o.spans)
				wo.spans = strings.TrimSuffix(o.spans, ext) + "-" + w.name + ext
			}
			res, err = runWorkload(ctx, w, wo, stdout)
		} else {
			res, err = runChild(w, o, stdout, stderr)
		}
		if err != nil {
			fmt.Fprintf(stderr, "levperf: %s: %v\n", w.name, err)
			code = 1
			continue
		}
		results[w.name] = res
		if !res.Correct {
			code = 1
		}
	}
	if o.trace {
		res, err := probeResult(ctx, o, stdout)
		if err != nil {
			fmt.Fprintln(stderr, "levperf:", err)
			code = 1
		} else {
			results[probesEntry] = res
			if !res.Correct {
				code = 1
			}
		}
	}
	fmt.Fprintf(stdout, "\nlevperf summary, seed %d, %gs per workload, trace=%d\n", o.seed, o.seconds, boolInt(o.trace))
	for _, name := range append(workloadNames(), probesEntry) {
		res, ok := results[name]
		if !ok {
			if name != probesEntry || o.trace {
				fmt.Fprintf(stdout, "  %-14s  no result\n", name)
			}
			continue
		}
		fmt.Fprintf(stdout, "  %-14s  correct=%t attempted=%d failed=%d fail_ratio=%.4g\n",
			name, res.Correct, res.Attempted, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)))
		printMetrics(stdout, res.Metrics)
	}
	if out != "" {
		if err := appendRecord(out, o, results); err != nil {
			fmt.Fprintln(stderr, "levperf:", err)
			return 1
		}
	}
	return code
}

// runChild runs one untraced workload in a child process, copying its
// report to stdout, and returns the result on its last line.
func runChild(w workload, o options, stdout, stderr io.Writer) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	var buf bytes.Buffer
	cmd := exec.Command(exe, "-workload", w.name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds), "-trace", "0")
	cmd.Stdout = io.MultiWriter(stdout, &buf)
	cmd.Stderr = stderr
	runErr := cmd.Run()
	res, err := lastResult(buf.Bytes())
	if err != nil {
		return result{}, fmt.Errorf("no result (%v, exit: %v)", err, runErr)
	}
	if runErr != nil {
		res.Correct = false
	}
	return res, nil
}

// lastResult parses the result object on the last non-empty line of a
// child's standard output.
func lastResult(b []byte) (result, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
			last = append(last[:0], line...)
		}
	}
	if last == nil {
		return result{}, errors.New("empty output")
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return result{}, err
	}
	return res, nil
}

func appendRecord(path string, o options, results map[string]result) error {
	line, err := json.Marshal(record{Seed: o.seed, Seconds: o.seconds, Trace: o.trace, Host: host(), Workloads: results})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
