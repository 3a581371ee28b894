// levfuzz is the differential fuzzer: it generates seeded random LEV64
// programs (weighted profiles from branch storms to Spectre-shaped gadgets),
// runs every one through the engine under every registered policy, and
// judges each run with the oracle stack — architectural differential against
// the reference model, bit-exact determinism, core invariants under
// fault-injected squash storms, the gadget security oracle, and panic/limit
// capture. Failures are auto-shrunk to minimal repros.
//
// Usage:
//
//	levfuzz -count 400 -seed 1 -q             # the make ci smoke
//	levfuzz -count 500 -profile gadget        # 500 gadget cases
//	levfuzz -campaign camp/ -count 2000       # keep state and repros in camp/
//	levfuzz -blind -count 300                 # no coverage feedback
//	levfuzz -policies unsafe,fence,levioso    # restrict the policy matrix
//	levfuzz -inject 'commit-stall:start=1000' # mutation-check a fault plan
//
// Every invocation is a coverage-guided campaign (fuzz.Campaign). Cases are
// admitted in epochs of eight: scheduled in index order, judged on -workers
// goroutines, folded back in index order, and the whole state (corpus,
// coverage map, finding buckets) is rewritten atomically at each epoch end.
// The state file does not depend on -workers. With -campaign the state and
// the shrunk repros live in that directory, so killing levfuzz at any point
// — including kill -9 — and rerunning the identical invocation resumes at
// the last epoch boundary. Without it the campaign runs in a temporary
// directory removed on exit. -blind disables the coverage feedback (every
// case generated fresh), the control arm for coverage-growth comparisons.
// Exit status: 0 clean, 1 findings, 2 usage.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"levioso/internal/cli"
	"levioso/internal/fuzz"
	"levioso/internal/stats"
)

func main() {
	os.Exit(run())
}

func run() int {
	seed := flag.Uint64("seed", 1, "campaign base seed")
	duration := flag.Duration("duration", 0, "wall-clock bound for the campaign (0: run -count cases)")
	count := flag.Int("count", 0, "number of cases (0 with -duration: unbounded)")
	profileSpec := flag.String("profile", "", "comma-separated generation profiles (default: all; one of "+profileList()+")")
	policySpec := flag.String("policies", "", "comma-separated policies to judge under (default: all registered)")
	campaign := flag.String("campaign", "", "campaign directory for the state file and repros (default: a temporary directory removed on exit)")
	blind := flag.Bool("blind", false, "disable coverage-guided mutation (every case fresh)")
	workers := flag.Int("workers", 0, "goroutines judging each epoch (default: GOMAXPROCS, capped at 8)")
	maxCycles := flag.Uint64("max-cycles", 0, "cycle limit per core run (default 4M)")
	deadline := flag.Duration("deadline", 0, "wall-clock bound per run (default 30s)")
	inject := flag.String("inject", "", "fault plan, e.g. 'commit-stall:start=1000;delay-fill:extra=10'")
	noShrink := flag.Bool("no-shrink", false, "persist findings without minimizing")
	quiet := flag.Bool("q", false, "suppress per-finding progress lines")
	metrics := cli.RegisterMetrics(flag.CommandLine)
	flag.Parse()
	if flag.NArg() > 0 {
		return cli.Usage("levfuzz [-seed N] [-duration D | -count N] [-profile p,..] [-policies p,..] [-campaign dir] [-blind] [-inject spec]")
	}

	profiles, err := fuzz.ParseProfiles(*profileSpec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "levfuzz: %v\n", err)
		return 2
	}
	plan, err := fuzz.ParseFaultSpec(*inject, int64(*seed))
	if err != nil {
		fmt.Fprintf(os.Stderr, "levfuzz: %v\n", err)
		return 2
	}

	cfg := fuzz.Options{
		Seed:      *seed,
		Profiles:  profiles,
		Count:     *count,
		Duration:  *duration,
		Workers:   *workers,
		NoShrink:  *noShrink,
		Policies:  cli.SplitList(*policySpec),
		MaxCycles: *maxCycles,
		Deadline:  *deadline,
		Faults:    plan,
		Blind:     *blind,
	}
	if !*quiet {
		cfg.Log = os.Stderr
	}
	defer func() { cli.DumpMetrics("levfuzz", *metrics) }()

	dir := *campaign
	if dir == "" {
		tmp, err := os.MkdirTemp("", "levfuzz-")
		if err != nil {
			return cli.Fail("levfuzz", err)
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}

	// ^C discards the epoch in flight and reports what was committed; with
	// -campaign the next identical invocation resumes from there.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	sum, err := fuzz.Campaign(ctx, dir, cfg)
	if err != nil {
		return cli.Fail("levfuzz", err)
	}
	fmt.Print(render(sum))
	if sum.FindingCount > 0 {
		fmt.Fprintf(os.Stderr, "levfuzz: %d finding(s)\n", sum.FindingCount)
		return 1
	}
	return 0
}

// render formats a campaign summary: headline counters plus one line per
// finding class with its repro files.
func render(s *fuzz.CampaignSummary) string {
	t := stats.NewTable("fuzz campaign", "metric", "value")
	t.Add("cases executed", fmt.Sprint(s.Cases))
	t.Add("cases resumed", fmt.Sprint(s.Resumed))
	t.Add("cases skipped", fmt.Sprint(s.Skipped))
	t.Add("cases mutated", fmt.Sprint(s.Mutated))
	t.Add("executions", fmt.Sprint(s.Execs))
	t.Add("coverage bits", fmt.Sprint(s.CoverageBits))
	t.Add("corpus size", fmt.Sprint(s.CorpusSize))
	t.Add("findings", fmt.Sprint(s.FindingCount))
	t.Add("elapsed", s.Elapsed.Round(time.Millisecond).String())
	out := t.String()
	for _, b := range s.Buckets {
		out += fmt.Sprintf("class %s/%s/%s: %d (first at case %06d)", b.Oracle, b.Policy, b.Kind, b.Count, b.FirstIndex)
		if len(b.Repros) > 0 {
			out += fmt.Sprintf(" [repros %v]", b.Repros)
		}
		out += "\n"
	}
	return out
}

func profileList() string {
	s := ""
	for i, p := range fuzz.Profiles() {
		if i > 0 {
			s += ","
		}
		s += string(p)
	}
	return s
}
