// levserve is the simulation daemon: an HTTP/JSON service over the shared
// run pipeline (internal/engine) with a bounded worker pool, per-request
// deadlines, and an LRU result cache keyed by a hash of (policy, run flags,
// every core parameter, program image) — repeated sweep cells are served
// without re-simulating. A "binary" input is keyed on the bytes the client
// sent, so two byte encodings of one program do not share a cache entry.
//
// Usage:
//
//	levserve [-addr :8347] [-workers N] [-cache 1024] [-deadline 60s]
//	levserve -worker
//
// Endpoints (see internal/serve):
//
//	POST /v1/simulate   {"source"|"asm"|"binary"|"workload", "policy", ...}
//	POST /v1/batch      {"cells":[...]} — NDJSON stream, one line per cell
//	GET  /v1/policies   GET /v1/workloads   GET /v1/stats   GET /v1/version
//	GET  /metrics       GET /healthz
//
// Every simulation — a /v1/simulate request or a batch cell — runs on the
// fault-tolerant dispatch tier (internal/dispatch): admission control, a
// shared result cache with single-flight dedup, retries with backoff, and
// per-worker circuit breakers; -workers sizes its worker pool and -cache
// its result cache. By default the workers are in-process; -worker-procs
// isolates them as subprocesses (this same binary re-executed
// as `levserve -worker`, speaking a versioned NDJSON protocol over
// stdin/stdout), so a crashing simulation takes down a disposable worker
// instead of the daemon. -worker runs that worker loop directly and is not
// meant for interactive use.
//
// Multi-host: `levserve -worker-listen :7070` runs a worker daemon serving
// the same wire protocol over TCP (heartbeats, daemon-wide shared result
// cache, graceful drain on SIGTERM); a coordinator started with
// `-remote host1:7070,host2:7070` dispatches its simulations to those
// daemons with automatic reconnection, per-peer backoff, and heartbeat
// partition detection. -net-inject arms a seeded network fault plan on the
// coordinator's connections (see internal/faultinject.ParseNetSpec) for
// chaos drills.
//
// -access-log writes one structured JSON line per request to stderr;
// -pprof mounts net/http/pprof under /debug/pprof/. GET /metrics serves the
// server's metric registry in the Prometheus text format.
//
// SIGINT/SIGTERM drain in-flight requests and shut down gracefully.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"levioso/internal/cli"
	"levioso/internal/dispatch"
	"levioso/internal/faultinject"
	"levioso/internal/serve"
)

func main() {
	os.Exit(run())
}

// run is the real main; funneling every exit through its return value keeps
// shutdown and error paths uniform across the tools.
func run() int {
	addr := flag.String("addr", ":8347", "listen address")
	workers := flag.Int("workers", 0, "worker slots: max concurrent simulations and fuzz campaigns (0 = GOMAXPROCS, or one per -remote peer)")
	cacheN := flag.Int("cache", 0, "result-cache entries (0 = 1024, negative disables)")
	deadline := flag.Duration("deadline", time.Minute, "default per-request deadline")
	maxBody := flag.Int64("max-body", 8<<20, "max request body bytes")
	accessLog := flag.Bool("access-log", false, "write one JSON access-log line per request to stderr")
	enablePprof := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	workerMode := flag.Bool("worker", false, "run as a dispatch worker on stdin/stdout (spawned by the coordinator, not for interactive use)")
	workerProcs := flag.Bool("worker-procs", false, "run simulations in subprocess workers (this binary re-executed with -worker)")
	workerListen := flag.String("worker-listen", "", "run as a TCP worker daemon on this address (e.g. :7070)")
	remote := flag.String("remote", "", "comma-separated worker-daemon addresses to run simulations on (host:port,...)")
	netInject := flag.String("net-inject", "", "seeded network fault plan for -remote connections (kind[:key=val...][;...]; kinds conn-kill, latency, partial-write, corrupt-frame, partition)")
	netInjectSeed := flag.Int64("net-inject-seed", 1, "seed for the -net-inject fault plan")
	flag.Parse()
	if flag.NArg() != 0 {
		return cli.Usage("levserve [-addr :8347] [-workers N] [-cache 1024] [-deadline 60s] [-access-log] [-pprof] [-worker-procs] [-remote host:port,...] | levserve -worker | levserve -worker-listen :7070")
	}

	if *workerMode {
		// Worker side of the dispatch wire protocol. EOF on stdin (the
		// coordinator closing the pipe) is the shutdown signal; signals are
		// left at their defaults so the coordinator's Kill works.
		if err := dispatch.ServeWorker(context.Background(), os.Stdin, os.Stdout); err != nil {
			return cli.Fail("levserve -worker", err)
		}
		return 0
	}

	if *workerListen != "" {
		// TCP worker daemon: many sequential calls per connection, shared
		// result cache across connections, heartbeats for coordinator-side
		// partition detection. SIGINT/SIGTERM drain gracefully.
		ln, err := net.Listen("tcp", *workerListen)
		if err != nil {
			return cli.Fail("levserve -worker-listen", err)
		}
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		fmt.Fprintf(os.Stderr, "levserve: worker daemon listening on %s\n", ln.Addr())
		if err := dispatch.ListenWorkers(ctx, ln, dispatch.ListenOptions{CacheEntries: *cacheN}); err != nil {
			return cli.Fail("levserve -worker-listen", err)
		}
		fmt.Fprintln(os.Stderr, "levserve: worker daemon drained cleanly")
		return 0
	}

	cfg := serve.Config{
		DefaultDeadline: *deadline,
		MaxBody:         *maxBody,
		EnablePprof:     *enablePprof,
		Dispatch:        &dispatch.Config{Workers: *workers, CacheEntries: *cacheN},
	}
	if *workerProcs {
		exe, err := os.Executable()
		if err != nil {
			return cli.Fail("levserve", fmt.Errorf("resolving own executable for -worker-procs: %w", err))
		}
		cfg.Dispatch.Spawn = dispatch.Proc(exe, "-worker")
	}
	if *remote != "" {
		cfg.Remote = cli.SplitList(*remote)
	}
	if *netInject != "" {
		if len(cfg.Remote) == 0 {
			return cli.Usage("levserve: -net-inject requires -remote")
		}
		plan, err := faultinject.ParseNetSpec(*netInject, *netInjectSeed)
		if err != nil {
			return cli.Fail("levserve", err)
		}
		if plan != nil {
			cfg.RemoteConfig.WrapConn = faultinject.NewNet(*plan).Wrap
		}
	}
	if *accessLog {
		cfg.AccessLog = os.Stderr
	}
	srv, err := serve.New(cfg)
	if err != nil {
		return cli.Fail("levserve", err)
	}
	defer srv.Close()
	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	shutdownDone := make(chan struct{})
	go func() {
		defer close(shutdownDone)
		<-ctx.Done()
		shCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := hs.Shutdown(shCtx); err != nil {
			fmt.Fprintln(os.Stderr, "levserve: shutdown:", err)
		}
	}()

	fmt.Fprintf(os.Stderr, "levserve: listening on %s\n", *addr)
	if err := hs.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		return cli.Fail("levserve", err)
	}
	<-shutdownDone
	fmt.Fprintln(os.Stderr, "levserve: shut down cleanly")
	return 0
}
