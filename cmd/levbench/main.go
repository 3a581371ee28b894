// levbench regenerates the paper's tables and figures (see DESIGN.md's
// experiment index).
//
// Usage:
//
//	levbench                      # run everything at reference scale
//	levbench -exp overhead        # one experiment (T1/F1/... by id)
//	levbench -exp rob,bdt         # a comma-separated subset, in order
//	levbench -size test           # faster, smaller inputs
//	levbench -list                # list experiment ids
//	levbench -journal runs.jsonl  # record completed cells; re-run resumes
//	levbench -retries 2 -run-timeout 10m
//
// One invocation is one evaluation plan: the requested experiments' cells
// (workload, policy, core) are pooled, every distinct cell is simulated once
// and verified against its workload's reference run, and each table renders
// from the shared results. F3 at ROB 192, F4 at 0% and F6 at 64 entries
// therefore reuse F1's default-core cells instead of re-running them.
//
// Robustness: the sweep supervisor degrades instead of aborting. A cell that
// fails (watchdog, divergence, panic, deadline) renders as "n/a" in every
// table that reads it and is listed in a failure table after each such
// report; at the end all failures are printed to stderr and levbench exits
// non-zero, so completed work is never lost to one bad run. With -journal,
// completed cells are recorded under their identity as they finish, and any
// later invocation that plans the same cell — the same run, or another
// experiment that reads it — resumes without re-simulating it.
// SIGINT/SIGTERM cancel the plan cleanly: the journal is flushed and closed,
// and exit is 130 with a resume hint rather than a mid-write kill.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"levioso/internal/cli"
	"levioso/internal/harness"
	"levioso/internal/prof"
)

func main() {
	os.Exit(run())
}

// run is the real main; funneling every exit through its return value lets
// the deferred profile flush (-cpuprofile/-memprofile) always happen.
func run() int {
	exp := flag.String("exp", "", "experiment id, or a comma-separated list (default: all)")
	sizeName := flag.String("size", "ref", "workload scale: test or ref")
	list := flag.Bool("list", false, "list experiment ids and exit")
	journalPath := flag.String("journal", "", "JSON-lines run journal for checkpoint/resume")
	retries := flag.Int("retries", 0, "retries per cell after a transient failure")
	runTimeout := flag.Duration("run-timeout", 0, "wall-clock bound per run attempt (0 = none)")
	profiles := prof.Register(flag.CommandLine)
	metrics := cli.RegisterMetrics(flag.CommandLine)
	flag.Parse()
	if *retries < 0 || *runTimeout < 0 {
		fmt.Fprintf(os.Stderr, "levbench: -retries (%d) and -run-timeout (%v) must not be negative\n",
			*retries, *runTimeout)
		return 2
	}
	defer func() { cli.DumpMetrics("levbench", *metrics) }()

	if *list {
		for _, id := range harness.ExperimentIDs() {
			fmt.Println(id)
		}
		return 0
	}
	ids, unknown := parseExpList(*exp)
	if len(unknown) > 0 {
		fmt.Fprintf(os.Stderr, "levbench: unknown experiment(s) %s (have %s)\n",
			strings.Join(unknown, ", "), strings.Join(harness.ExperimentIDs(), ", "))
		return 2
	}
	if err := profiles.Start(); err != nil {
		return cli.Fail("levbench", err)
	}
	defer profiles.Stop()
	size, err := cli.ParseSize(*sizeName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "levbench: %v\n", err)
		return 2
	}
	opt := harness.NewRunOpts(size)
	opt.Retries = *retries
	opt.RunTimeout = *runTimeout
	if *journalPath != "" {
		j, err := harness.OpenJournal(*journalPath)
		if err != nil {
			return cli.Fail("levbench", err)
		}
		defer j.Close()
		if n := j.Len(); n > 0 {
			fmt.Fprintf(os.Stderr, "levbench: journal %s: resuming past %d completed cells\n",
				*journalPath, n)
		}
		opt.Journal = j
	}

	// SIGINT/SIGTERM cancel the sweep context: in-flight cells unwind, the
	// journal (already flushed per completed cell) closes cleanly via the
	// defer above, and a re-run of the same invocation resumes.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if err := harness.RunExperiments(ctx, os.Stdout, ids, opt); err != nil {
		return failOrInterrupted(ctx, err)
	}
	if fs := opt.Failures(); len(fs) > 0 {
		fmt.Fprintf(os.Stderr, "levbench: %d cell(s) failed; report is degraded (n/a entries)\n", len(fs))
		fmt.Fprintln(os.Stderr, harness.RenderFailures(fs))
		return 1
	}
	return 0
}

// failOrInterrupted distinguishes "the user hit ctrl-C" (exit 130, the
// conventional interrupted status, with a resume hint) from a real failure.
func failOrInterrupted(ctx context.Context, err error) int {
	if ctx.Err() != nil && errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "levbench: interrupted; completed cells are journaled, re-run to resume")
		return 130
	}
	return cli.Fail("levbench", err)
}

// parseExpList splits a comma-separated experiment list and validates every
// id, so a typo in any position is reported together with the rest instead
// of failing on the first after experiments already ran.
func parseExpList(arg string) (ids, unknown []string) {
	known := make(map[string]bool)
	for _, id := range harness.ExperimentIDs() {
		known[id] = true
	}
	for _, id := range strings.Split(arg, ",") {
		id = strings.TrimSpace(id)
		if id == "" {
			continue
		}
		ids = append(ids, id)
		if !known[id] {
			unknown = append(unknown, id)
		}
	}
	return ids, unknown
}
