// levsim runs a LEV64 binary on the out-of-order core under a chosen
// secure-speculation policy and reports performance statistics.
//
// Usage:
//
//	levsim [-policy levioso] [-rob 192] [-stats] [-ref] prog.bin
//	levsim -deadline 30s -journal runs.jsonl prog.bin
//
// With -ref the program runs on the functional reference model instead
// (useful for checking architectural behaviour). -deadline bounds the run's
// wall-clock time (a hung simulation exits with a typed deadline error
// instead of spinning forever); -journal records the completed run in a
// JSON-lines journal and skips the simulation entirely if the same run is
// already recorded there. A run is keyed by its identity, as levbench keys
// its cells: the program image, the canonical policy, the core after every
// override (-rob, -max-cycles) and the run mode (-ref), so a run that
// differs in any of them simulates. With -trace there is no key, and the
// journal is not read or written.
//
// The main is a thin flag-to-Request adapter over internal/engine; all
// pipeline logic lives there.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"levioso/internal/cli"
	"levioso/internal/engine"
	"levioso/internal/harness"
)

func main() {
	os.Exit(run())
}

// run is the real main; funneling every exit through its return value lets
// the deferred profile flush (-cpuprofile/-memprofile) always happen.
func run() int {
	sf := cli.RegisterSim(flag.CommandLine)
	journalPath := flag.String("journal", "", "record the run in this JSON-lines journal; skip if already recorded")
	metrics := cli.RegisterMetrics(flag.CommandLine)
	flag.Parse()
	defer func() { cli.DumpMetrics("levsim", *metrics) }()
	if flag.NArg() != 1 {
		return cli.Usage("levsim [-policy P] [-rob N] [-stats] [-ref] prog.bin")
	}
	if err := sf.Profiles.Start(); err != nil {
		return cli.Fail("levsim", err)
	}
	defer sf.Profiles.Stop()
	img, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		return cli.Fail("levsim", err)
	}
	wname := filepath.Base(flag.Arg(0))
	req, err := sf.Request(wname)
	if err != nil {
		return cli.Fail("levsim", err)
	}
	req.Binary = img
	// A traced run's core carries a hook and has no key: it skips the journal.
	var journal *harness.Journal
	key, keyed := engine.ImageKey(img, req.Policy, req.BuildConfig(), req.UseRef, req.Verify)
	if *journalPath != "" && keyed {
		journal, err = harness.OpenJournal(*journalPath)
		if err != nil {
			return cli.Fail("levsim", err)
		}
		defer journal.Close()
		if rec, ok := journal.Lookup(key); ok {
			fmt.Fprintf(os.Stderr, "levsim: journal hit for (%s, %s): exit=%d cycles=%d (not re-run)\n",
				wname, req.Policy, rec.ExitCode, rec.Stats.Cycles)
			return cli.ExitStatus(rec.ExitCode)
		}
	}
	res, err := engine.Run(context.Background(), req)
	if err != nil {
		return cli.Fail("levsim", err)
	}
	if journal != nil {
		rec := harness.Run{Workload: wname, Policy: req.Policy, Stats: res.Stats, ExitCode: res.ExitCode}
		if err := journal.Record(key, rec); err != nil {
			fmt.Fprintln(os.Stderr, "levsim: journal write failed:", err)
		}
	}
	fmt.Print(res.Output)
	if res.Ref {
		fmt.Fprintf(os.Stderr, "levsim(ref): exit=%d insts=%d\n", res.ExitCode, res.RefInsts)
		return res.ExitStatus()
	}
	fmt.Fprintf(os.Stderr, "levsim: policy=%s exit=%d cycles=%d insts=%d ipc=%.3f\n",
		*sf.Policy, res.ExitCode, res.Stats.Cycles, res.Stats.Committed, res.Stats.IPC())
	if *sf.Stats {
		fmt.Fprintln(os.Stderr, res.Stats)
	}
	return res.ExitStatus()
}
