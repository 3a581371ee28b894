package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"levioso/internal/cpu"
	"levioso/internal/dispatch"
	"levioso/internal/engine"
	"levioso/internal/fuzz"
	"levioso/internal/harness"
	"levioso/internal/isa"
	"levioso/internal/journal"
	"levioso/internal/obs"
	"levioso/internal/ref"
	"levioso/internal/secure"
	"levioso/internal/serve"
	"levioso/internal/stats"
	"levioso/internal/workloads"
)

// The layer probes time each layer on its own, by calling its public
// functions directly on inputs derived from the seed. They run once per
// traced invocation, apart from any workload, so every per-layer time is
// measured the same way in every traced run.

// probeSet holds the probe inputs: a trivial program and a typical one (the
// shape serve-source posts).
type probeSet struct {
	o       *options
	typSrc  string
	typical *isa.Program
	trivial *isa.Program
	m       map[string]float64
	checked int // probe outputs checked
	bad     int // probe outputs that failed their check
	log     io.Writer
	// caseSec is the mean time the fuzz probe spent generating and judging
	// one case, which the campaign probe takes off its time per case.
	caseSec float64
}

// probePolicy is the policy every single-policy probe runs under.
const probePolicy = "levioso"

// runProbes runs every layer probe and returns their metrics, the number of
// probe outputs checked and the number that failed their check.
func runProbes(ctx context.Context, o *options, log io.Writer) (vals map[string]float64, checked, bad int, err error) {
	p := &probeSet{o: o, m: map[string]float64{}, log: log}
	rng := rand.New(rand.NewSource(int64(o.seed)))
	if p.typSrc, p.typical, _, err = drawProgram(ctx, rng, typicalShape, serveMaxInsts, "typical"); err != nil {
		return nil, 0, 0, err
	}
	if p.trivial, _, err = engine.Compile("trivial", "func main() { return 7; }", true); err != nil {
		return nil, 0, 0, err
	}
	for _, step := range []struct {
		name string
		run  func(context.Context) error
	}{
		{"cpu pass", p.cpuPass},
		{"cpu", p.cpuMicro},
		{"engine", p.engine},
		{"harness", p.harness},
		{"serve", p.serve},
		{"dispatch", p.dispatch},
		{"fuzz", p.fuzz},
		{"campaign", p.campaign},
	} {
		t0 := time.Now()
		if err := step.run(ctx); err != nil {
			return nil, 0, 0, fmt.Errorf("%s probe: %w", step.name, err)
		}
		fmt.Fprintf(log, "  probe %-8s %6.2f s\n", step.name, time.Since(t0).Seconds())
	}
	return p.m, p.checked, p.bad, nil
}

// check counts one checked probe output.
func (p *probeSet) check(ok bool) {
	p.checked++
	if !ok {
		p.bad++
	}
}

// timeReps calls f n times and returns the median duration in the given
// unit.
func timeReps(n int, unit time.Duration, f func() error) (float64, error) {
	xs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		xs = append(xs, float64(time.Since(t0))/float64(unit))
	}
	return median(xs), nil
}

// pairedReps alternates a and b n times and returns the median of b's
// duration minus a's, in the given unit. Pairing keeps host drift between
// the two measurements out of a difference far smaller than either.
func pairedReps(n int, unit time.Duration, a, b func() error) (float64, error) {
	xs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := a(); err != nil {
			return 0, err
		}
		t1 := time.Now()
		if err := b(); err != nil {
			return 0, err
		}
		xs = append(xs, float64(time.Since(t1)-t1.Sub(t0))/float64(unit))
	}
	return median(xs), nil
}

// cpuPass runs every (suite kernel, eval policy) cell once on one thread
// under a CPU profile: host ns per simulated cycle per policy, heap
// allocations per committed instruction, the pipeline-stage split, and the
// model's Levioso overhead (simulated cycles, exact for a given commit).
func (p *probeSet) cpuPass(ctx context.Context) error {
	kernels := workloads.All()
	if n := p.o.sizes.probeKernels; n > 0 {
		kernels = kernels[:n]
	}
	progs := make([]*isa.Program, len(kernels))
	wants := make([]ref.Result, len(kernels))
	for i, w := range kernels {
		prog, err := w.Build(workloads.SizeTest)
		if err != nil {
			return err
		}
		progs[i] = prog
		if wants[i], err = engine.Reference(ctx, prog, ref.Limits{}); err != nil {
			return err
		}
	}
	profPath := filepath.Join(p.o.workDir, "levperf-cpu.pprof")
	f, err := os.Create(profPath)
	if err != nil {
		return err
	}
	defer os.Remove(profPath)
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	cycles, insts, mallocs, allocBytes, err := p.runCells(progs, wants)
	pprof.StopCPUProfile()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	p.m["cpu.allocs_per_inst"] = float64(mallocs) / float64(max(insts, 1))
	p.m["cpu.bytes_per_inst"] = float64(allocBytes) / float64(max(insts, 1))

	base := engine.BaselinePolicy()
	var ratios []float64
	for i := range progs {
		ratios = append(ratios, cycles["levioso"][i]/cycles[base][i])
	}
	p.m["model.levioso_overhead_pct"] = 100 * (stats.GeoMean(ratios) - 1)

	pct, err := stagePercents(profPath)
	if err != nil {
		return err
	}
	for _, s := range cpuStages {
		p.m["cpu.stage_pct."+s] = pct[s]
	}
	return nil
}

// runCells runs every program under every eval policy on this goroutine,
// recording ns per simulated cycle per policy into p.m. It returns each
// run's simulated cycles by policy, and the committed instructions and heap
// allocations of all runs together.
func (p *probeSet) runCells(progs []*isa.Program, wants []ref.Result) (cycles map[string][]float64, insts, mallocs, allocBytes uint64, err error) {
	cycles = map[string][]float64{}
	for _, pol := range engine.EvalPolicies() {
		var wall time.Duration
		var cyc uint64
		for i, prog := range progs {
			policy, err := secure.New(pol)
			if err != nil {
				return nil, 0, 0, 0, err
			}
			c, err := cpu.New(prog, cpu.DefaultConfig(), policy)
			if err != nil {
				return nil, 0, 0, 0, err
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			t0 := time.Now()
			res, err := c.Run()
			wall += time.Since(t0)
			runtime.ReadMemStats(&after)
			p.check(err == nil && res.ExitCode == wants[i].ExitCode && res.Output == wants[i].Output)
			cyc += res.Stats.Cycles
			insts += res.Stats.Committed
			mallocs += after.Mallocs - before.Mallocs
			allocBytes += after.TotalAlloc - before.TotalAlloc
			cycles[pol] = append(cycles[pol], float64(res.Stats.Cycles))
		}
		p.m["cpu.ns_per_cycle."+pol] = float64(wall.Nanoseconds()) / float64(max(cyc, 1))
	}
	return cycles, insts, mallocs, allocBytes, nil
}

// stageMethods maps each reported stage to its (*Core) method.
var stageMethods = map[string]string{
	"fetch": "fetch", "rename": "rename", "issue": "issue", "execute": "execute",
	"complete": "complete", "commit": "commit", "idleskip": "idleSkip",
}

// stagePercents reads the cumulative share of each pipeline stage method
// out of a CPU profile with `go tool pprof -top -cum`.
func stagePercents(profPath string) (map[string]float64, error) {
	var out bytes.Buffer
	cmd := exec.Command("go", "tool", "pprof", "-top", "-cum", "-nodecount=1000000", "-symbolize=none", profPath)
	cmd.Stdout = &out
	cmd.Stderr = io.Discard
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	pct := map[string]float64{}
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 6 {
			continue
		}
		fn := strings.Join(fields[5:], " ")
		for stage, method := range stageMethods {
			if strings.HasSuffix(fn, "cpu.(*Core)."+method) {
				v, err := strconv.ParseFloat(strings.TrimSuffix(fields[4], "%"), 64)
				if err == nil {
					pct[stage] = v
				}
			}
		}
	}
	if len(pct) == 0 {
		return nil, fmt.Errorf("no pipeline stage in the CPU profile %s", profPath)
	}
	return pct, nil
}

// cpuMicro times core construction and the cost of a coverage sink.
func (p *probeSet) cpuMicro(context.Context) error {
	reps := p.o.sizes.probeReps
	var err error
	p.m["cpu.new_us"], err = timeReps(5*reps, time.Microsecond, func() error {
		_, err := cpu.New(p.trivial, cpu.DefaultConfig(), secure.MustNew(probePolicy))
		return err
	})
	if err != nil {
		return err
	}
	run := func(cov *cpu.CoverageSink) (time.Duration, error) {
		cfg := cpu.DefaultConfig()
		cfg.Coverage = cov
		c, err := cpu.New(p.typical, cfg, secure.MustNew(probePolicy))
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		_, err = c.Run()
		return time.Since(t0), err
	}
	var plain, covered []float64
	for i := 0; i < reps; i++ {
		a, err := run(nil)
		if err != nil {
			return err
		}
		b, err := run(new(cpu.CoverageSink))
		if err != nil {
			return err
		}
		plain, covered = append(plain, float64(a)), append(covered, float64(b))
	}
	p.m["cpu.coverage_overhead_pct"] = 100 * (median(covered)/median(plain) - 1)
	return nil
}

// engine times each build stage on the typical program, and the reference
// interpreter on the first suite kernel.
func (p *probeSet) engine(ctx context.Context) error {
	reps := p.o.sizes.probeReps
	var err error
	if p.m["engine.compile_us"], err = timeReps(reps, time.Microsecond, func() error {
		_, _, err := engine.Compile("typical", p.typSrc, false)
		return err
	}); err != nil {
		return err
	}
	var annot []float64
	for i := 0; i < reps; i++ {
		prog, _, err := engine.Compile("typical", p.typSrc, false)
		if err != nil {
			return err
		}
		t0 := time.Now()
		if _, err := engine.Annotate(prog); err != nil {
			return err
		}
		annot = append(annot, float64(time.Since(t0))/float64(time.Microsecond))
	}
	p.m["engine.annotate_us"] = median(annot)
	if p.m["engine.cachekey_us"], err = timeReps(5*reps, time.Microsecond, func() error {
		if _, ok := engine.CacheKey(p.typical, probePolicy, cpu.DefaultConfig(), false, false); !ok {
			return fmt.Errorf("typical program not cacheable")
		}
		return nil
	}); err != nil {
		return err
	}
	img, err := p.typical.MarshalBinary()
	if err != nil {
		return err
	}
	if p.m["engine.load_us"], err = timeReps(5*reps, time.Microsecond, func() error {
		_, err := engine.Load("typical", img)
		return err
	}); err != nil {
		return err
	}
	kernel, err := workloads.All()[0].Build(workloads.SizeTest)
	if err != nil {
		return err
	}
	var insts uint64
	ns, err := timeReps(5, time.Nanosecond, func() error {
		r, err := engine.Reference(ctx, kernel, ref.Limits{})
		insts = r.Insts
		return err
	})
	if err != nil {
		return err
	}
	p.m["engine.reference_ns_per_inst"] = ns / float64(max(insts, 1))
	return nil
}

// harness runs one supervised sweep of the first suite kernel under every
// eval policy and reads the mean cell time and the retries from the obs
// registry harness.Supervise records into. The registry keeps cell times in
// a bucketed histogram, whose interpolated median repeats exactly from run
// to run; the mean comes from the exact sum.
func (p *probeSet) harness(ctx context.Context) error {
	spec := harness.DefaultSpec()
	spec.Size = workloads.SizeTest
	spec.Workloads = spec.Workloads[:1]
	reg := obs.NewRegistry()
	res, err := harness.Supervise(obs.WithRegistry(ctx, reg), spec)
	if err != nil {
		return err
	}
	for range res.Runs {
		p.check(true)
	}
	for range res.Failures {
		p.check(false)
	}
	cell := stage{reg: reg, family: "harness", stage: "cell"}.snapshot()
	p.m["harness.cell_ms_mean"] = 1e3 * cell.Sum / float64(max(cell.Count, 1))
	p.m["harness.retries"] = float64(reg.Counter("harness_retries_total", "").Value())
	return nil
}

// serve times a repeated /v1/simulate of the typical program (a result-cache
// hit after the first) through the handler directly and through a loopback
// HTTP listener; the difference is the socket and net/http cost.
func (p *probeSet) serve(context.Context) error {
	srv, err := serve.New(serve.Config{})
	if err != nil {
		return err
	}
	defer srv.Close()
	body, err := json.Marshal(serve.SimRequest{Name: "typical", Source: p.typSrc, Policy: probePolicy})
	if err != nil {
		return err
	}
	h := srv.Handler()
	direct := func() error {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/simulate", bytes.NewReader(body)))
		p.check(rr.Code == http.StatusOK)
		return nil
	}
	direct()
	reps := 2 * p.o.sizes.probeReps
	handler, err := timeReps(reps, time.Microsecond, direct)
	if err != nil {
		return err
	}
	hs := httptest.NewServer(h)
	defer hs.Close()
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	defer client.CloseIdleConnections()
	loopback, err := pairedReps(reps, time.Microsecond, direct, func() error {
		resp, err := client.Post(hs.URL+"/v1/simulate", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return err
		}
		p.check(resp.StatusCode == http.StatusOK)
		return nil
	})
	if err != nil {
		return err
	}
	p.m["serve.handler_us_p50"] = handler
	p.m["serve.loopback_us_p50"] = loopback
	return nil
}

// dispatch runs the transport matrix: per-cell overhead of
// Coordinator.Execute over engine.Run on the same cell, for every transport
// and two cell sizes, with every result cache off; then the cache-hit path
// and the single-flight path in process.
func (p *probeSet) dispatch(ctx context.Context) error {
	reps := p.o.sizes.probeReps
	progs := map[string]*isa.Program{"trivial": p.trivial, "typical": p.typical}
	ov := engine.Overrides{Policy: probePolicy}
	direct := func(k string) func() error {
		return func() error {
			_, err := engine.Run(ctx, engine.Request{Name: k, Program: progs[k], Overrides: ov})
			return err
		}
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	execute := func(co *dispatch.Coordinator, k string) error {
		_, err := co.Execute(ctx, &dispatch.Cell{Name: k, Program: progs[k], Overrides: ov})
		return err
	}
	for _, t := range transports {
		spawn, stop, err := p.spawner(ctx, t, exe)
		if err != nil {
			return err
		}
		co, err := dispatch.New(ctx, dispatch.Config{Workers: 1, Spawn: spawn, CacheEntries: -1, Registry: obs.NewRegistry()})
		if err != nil {
			stop()
			return fmt.Errorf("%s: %w", t, err)
		}
		for _, k := range cellKinds {
			if err = execute(co, k); err != nil {
				break
			}
			var us float64
			if us, err = pairedReps(reps, time.Microsecond, direct(k), func() error { return execute(co, k) }); err != nil {
				break
			}
			p.m["dispatch.cell_overhead_us."+t+"."+k] = us
		}
		co.Close()
		stop()
		if err != nil {
			return fmt.Errorf("%s: %w", t, err)
		}
	}

	cached, err := dispatch.New(ctx, dispatch.Config{Workers: 1, Registry: obs.NewRegistry()})
	if err != nil {
		return err
	}
	defer cached.Close()
	if err := execute(cached, "typical"); err != nil {
		return err
	}
	if p.m["dispatch.cache_hit_us"], err = timeReps(5*reps, time.Microsecond, func() error { return execute(cached, "typical") }); err != nil {
		return err
	}

	// Two identical cells at once on two workers with the cache off: the
	// second waits on the first's flight. The metric is the extra wall time
	// over one Execute alone. On one P the first cell would finish before the
	// second goroutine ran, so this step runs on two.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	sf, err := dispatch.New(ctx, dispatch.Config{Workers: 2, CacheEntries: -1, Registry: obs.NewRegistry()})
	if err != nil {
		return err
	}
	defer sf.Close()
	extra, err := pairedReps(reps, time.Microsecond, func() error { return execute(sf, "typical") }, func() error {
		var wg sync.WaitGroup
		errs := make([]error, 2)
		for i := range errs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				errs[i] = execute(sf, "typical")
			}(i)
		}
		wg.Wait()
		if errs[0] != nil {
			return errs[0]
		}
		return errs[1]
	})
	if err != nil {
		return err
	}
	p.m["dispatch.singleflight_us"] = extra
	fmt.Fprintf(p.log, "  probe dispatch: %d of %d duplicate cells coalesced by single-flight\n", sf.Snapshot().DedupHits, reps)
	return nil
}

// spawner returns a worker spawner for the named transport and a function
// that releases what it started.
func (p *probeSet) spawner(ctx context.Context, t, exe string) (dispatch.Spawner, func(), error) {
	switch t {
	case "inproc":
		return dispatch.Inproc(), func() {}, nil
	case "pipe":
		return dispatch.Pipe(), func() {}, nil
	case "proc":
		return dispatch.Proc(exe, "-worker"), func() {}, nil
	case "tcp":
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, nil, err
		}
		dctx, cancel := context.WithCancel(ctx)
		done := make(chan error, 1)
		go func() { done <- dispatch.ListenWorkers(dctx, ln, dispatch.ListenOptions{CacheEntries: -1}) }()
		fleet, err := dispatch.NewRemote(dispatch.RemoteConfig{Registry: obs.NewRegistry()}, ln.Addr().String())
		if err != nil {
			cancel()
			<-done
			return nil, nil, err
		}
		return fleet.Spawner(), func() { cancel(); <-done }, nil
	}
	return nil, nil, fmt.Errorf("unknown transport %q", t)
}

// fuzz generates and judges seeded cases one at a time, cycling through the
// generator profiles, with a coverage sink attached as a campaign does.
func (p *probeSet) fuzz(ctx context.Context) error {
	var gen, orc []float64
	execs := 0
	var total time.Duration
	profiles := fuzzProfiles()
	n := p.o.sizes.probeCases
	for i := 0; i < n; i++ {
		t0 := time.Now()
		c, err := fuzz.Generate(profiles[i%len(profiles)], fuzz.CaseSeed(p.o.seed, i), i)
		if err != nil {
			return err
		}
		t1 := time.Now()
		v := fuzz.RunOracles(ctx, c, fuzz.Options{Coverage: new(cpu.CoverageSink)})
		t2 := time.Now()
		p.check(len(v.Findings) == 0)
		gen = append(gen, float64(t1.Sub(t0))/float64(time.Microsecond))
		orc = append(orc, float64(t2.Sub(t1))/float64(time.Millisecond))
		execs += v.Execs
		total += t2.Sub(t0)
	}
	p.m["fuzz.generate_us"] = median(gen)
	p.m["fuzz.oracles_ms"] = median(orc)
	p.m["fuzz.execs_per_case"] = float64(execs) / math.Max(float64(n), 1)
	p.caseSec = total.Seconds() / math.Max(float64(n), 1)
	return nil
}

// campaign runs one coverage-guided campaign of the size fuzz-campaign runs:
// the campaign's own time per case beyond generating and judging it (the
// fuzz probe's mean; what remains is scheduling, mutation, coverage
// accounting and state writes), the coverage it reached and the size of its
// final state file (both exact for a seed), and the cost of one atomic
// rewrite of that file.
func (p *probeSet) campaign(ctx context.Context) error {
	dir, err := os.MkdirTemp(p.o.workDir, "probe-campaign-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	sum, err := fuzz.Campaign(ctx, dir, fuzz.Options{Seed: p.o.seed, Count: p.o.sizes.fuzzCount, Profiles: fuzzProfiles()})
	if err != nil {
		return err
	}
	p.check(sum.FindingCount == 0)
	p.m["fuzz.campaign_self_ms"] = 1e3 * (sum.Elapsed.Seconds()/float64(max(sum.Cases, 1)) - p.caseSec)
	p.m["fuzz.cov_bits"] = float64(sum.CoverageBits)
	state, err := os.ReadFile(filepath.Join(dir, fuzz.CampaignStateName))
	if err != nil {
		return err
	}
	p.m["journal.state_bytes"] = float64(len(state))
	rewrite := filepath.Join(dir, "rewrite.json")
	p.m["journal.write_atomic_ms"], err = timeReps(5, time.Millisecond, func() error { return journal.WriteAtomic(rewrite, state) })
	return err
}
