// Command cmid runs the CMI Enactment System server (Figure 5): the
// CORE, Coordination and Awareness engines behind the federation
// HTTP/JSON API.
//
// Usage:
//
//	cmid [-addr :8040] [-state DIR] [-spec FILE ...] [-start]
//
// Specifications may be preloaded from ADL files with -spec (repeatable);
// otherwise a designer client uploads them via POST /api/spec. With
// -start the system starts immediately after loading the given specs;
// otherwise a designer client starts it via POST /api/system/start.
//
// With -state DIR, the directory persists the delivery queues, the
// enactment write-ahead log and snapshot, and every loaded spec: a bare
// `cmid -state DIR` restart recovers the schemas first, then the full
// enactment state, and logs a recovery summary.
//
// With -forward URL and -forward-participant ID, every detected
// awareness event is also shipped to the federation server at URL for
// that participant, store-and-forward: notifications are journaled to a
// durable spool (-spool, default STATE/spool.journal — binary wire
// frames; a journal written by an earlier version as spool.jsonl keeps
// its name and upgrades in place) and redelivered across remote outages
// under a retry/backoff policy with a per-domain circuit breaker
// (-fed-* flags). Forwarding without -state keeps the spool in the
// temporary state directory, which is removed on shutdown — undelivered
// notifications would be lost, so cmid warns.
//
// With -addr-file FILE, the actual listen address (useful with
// -addr 127.0.0.1:0 for harnesses that need a free port) is written to
// FILE once the listener is bound.
//
// With -enact-stripes N, the enactment engine partitions process
// families across N lock stripes so operations on unrelated families
// enact (and recover) concurrently; 0 picks GOMAXPROCS, 1 restores the
// single global lock. With -pprof ADDR, the net/http/pprof profiling
// endpoints are served on their own listener at ADDR.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // -pprof endpoints on the default mux
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	cmi "github.com/mcc-cmi/cmi"
	"github.com/mcc-cmi/cmi/internal/federation"
	"github.com/mcc-cmi/cmi/internal/fs"
	"github.com/mcc-cmi/cmi/internal/vclock"
)

type specList []string

func (s *specList) String() string { return fmt.Sprint(*s) }

func (s *specList) Set(v string) error {
	*s = append(*s, v)
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("cmid: ")
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	var (
		addr      = flag.String("addr", ":8040", "listen address")
		addrFile  = flag.String("addr-file", "", "write the bound listen address to this file (for harnesses using -addr with port 0)")
		state     = flag.String("state", "", "state directory for delivery queues, enactment journal and specs; a restart recovers from it (default: temporary)")
		start     = flag.Bool("start", false, "start the system immediately after loading -spec files")
		stripes   = flag.Int("enact-stripes", 0, "enactment engine lock stripes partitioning process families; unrelated families enact concurrently (0: GOMAXPROCS, 1: single global lock)")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof profiling endpoints on this address (e.g. localhost:6060; empty: disabled)")
		syncJ     = flag.Bool("sync-journal", false, "fsync each delivery-journal and enactment-WAL commit group (durable across machine crashes, not just process crashes)")
		snapEvery = flag.Int("snapshot-every", 0, "enactment journal records between snapshot+truncate compactions (0: default; negative: disable compaction)")
		specs     specList

		streamBuf  = flag.Int("stream-buffer", 0, "per-session streaming live buffer in notifications; a slower subscriber degrades to cursor replay from the journal (0: default 256)")
		streamPing = flag.Duration("stream-ping", 0, "heartbeat interval on idle streaming sessions (0: default 15s)")

		forward     = flag.String("forward", "", "base URL of a remote CMI domain to forward awareness notifications to")
		forwardPart = flag.String("forward-participant", "", "remote participant to deliver forwarded notifications to (required with -forward)")
		spool       = flag.String("spool", "", "store-and-forward spool journal (default: STATE/spool.journal, or a pre-existing STATE/spool.jsonl)")
		fedAttempts = flag.Int("fed-attempts", 0, "max attempts per federation call (default: policy default)")
		fedTimeout  = flag.Duration("fed-timeout", 0, "per-attempt timeout for federation calls (default: policy default)")
		fedBreaker  = flag.Int("fed-breaker", 0, "consecutive failures opening the federation circuit breaker (default: policy default)")
		fedCooldown = flag.Duration("fed-cooldown", 0, "open-breaker cooldown before a half-open trial (default: policy default)")
		fedProbe    = flag.Duration("fed-probe", 0, "interval for /api/healthz probes while the breaker is open (default: policy default)")

		fsFaults     = flag.String("fs-faults", os.Getenv("CMI_FS_FAULTS"), "inject storage faults into every durable log, e.g. sync-fail@3,enospc@65536 (chaos testing; default: $CMI_FS_FAULTS)")
		allowCorrupt = flag.Bool("allow-corrupt", false, "serve (read-only, unhealthy) on a state dir whose enactment WAL is corrupt mid-journal instead of exiting; for inspection alongside cmictl fsck")
	)
	flag.Var(&specs, "spec", "ADL specification file to preload (repeatable)")
	flag.Parse()
	if *forward != "" && *forwardPart == "" {
		return fmt.Errorf("-forward requires -forward-participant")
	}

	if *pprofAddr != "" {
		// The default mux carries the net/http/pprof handlers; serve it on
		// its own listener so profiling never shares the API address.
		// Sampled contention/blocking rates give the mutex and block
		// profiles data at a small, bounded overhead.
		runtime.SetMutexProfileFraction(100)
		runtime.SetBlockProfileRate(10000)
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("pprof server: %v", err)
			}
		}()
		log.Printf("pprof endpoints on http://%s/debug/pprof/", *pprofAddr)
	}

	var fsys fs.FS
	if *fsFaults != "" {
		cfg, err := fs.ParseFaults(*fsFaults)
		if err != nil {
			return fmt.Errorf("-fs-faults: %w", err)
		}
		if !cfg.Zero() {
			fsys = fs.NewFault(nil, cfg)
			log.Printf("WARNING: injecting storage faults into every durable log: %s", cfg)
		}
	}

	sys, err := cmi.New(cmi.Config{
		Clock:         vclock.NewSystem(),
		StateDir:      *state,
		SyncJournal:   *syncJ,
		SnapshotEvery: *snapEvery,
		StreamBuffer:  *streamBuf,
		EnactStripes:  *stripes,
		FS:            fsys,
	})
	if err != nil {
		return err
	}
	if rec := sys.Recovery(); rec.SnapshotLoaded || rec.Replayed > 0 || rec.TornTail || rec.Failed > 0 {
		log.Printf("recovered enactment state: snapshot=%v, %d record(s) replayed, %d skipped, %d failed, torn tail=%v (%v)",
			rec.SnapshotLoaded, rec.Replayed, rec.Skipped, rec.Failed, rec.TornTail, rec.Elapsed)
	}
	if rec := sys.Recovery(); rec.Corrupt {
		if !*allowCorrupt {
			dir := sys.StateDir()
			sys.Close()
			return fmt.Errorf("enactment WAL is corrupt mid-journal at offset %d; refusing to serve (run `cmictl fsck %s`, or restart with -allow-corrupt to inspect read-only)",
				rec.CorruptOffset, dir)
		}
		log.Printf("WARNING: enactment WAL is corrupt mid-journal at offset %d; serving the recovered prefix read-only (-allow-corrupt); run `cmictl fsck %s`",
			rec.CorruptOffset, sys.StateDir())
	}
	if *syncJ && *state == "" {
		log.Printf("WARNING: -sync-journal with a temporary state directory: the journals are fsynced but the directory is removed on shutdown, so nothing survives a restart; pass -state DIR to make durability meaningful")
	}
	if *forward != "" && *state == "" && *spool == "" {
		log.Printf("WARNING: -forward with a temporary state directory: the store-and-forward spool lives under it and is removed on shutdown, so undelivered notifications are lost; pass -state DIR or -spool FILE to make the spool durable")
	}

	for _, path := range specs {
		src, err := os.ReadFile(path)
		if err != nil {
			sys.Close()
			return err
		}
		spec, err := sys.LoadSpec(string(src))
		if err != nil {
			sys.Close()
			return fmt.Errorf("%s: %w", path, err)
		}
		log.Printf("loaded %s: %d process schema(s), %d awareness schema(s)",
			path, len(spec.Processes), len(spec.Awareness))
	}
	if *forward != "" {
		policy := federation.DefaultPolicy()
		if *fedAttempts > 0 {
			policy.MaxAttempts = *fedAttempts
		}
		if *fedTimeout > 0 {
			policy.AttemptTimeout = *fedTimeout
		}
		if *fedBreaker > 0 {
			policy.BreakerThreshold = *fedBreaker
		}
		if *fedCooldown > 0 {
			policy.BreakerCooldown = *fedCooldown
		}
		if *fedProbe > 0 {
			policy.ProbeInterval = *fedProbe
		}
		res := federation.NewResilience(*forward, policy, nil, sys.Metrics())
		remote := federation.NewRemoteClient(*forward, nil).WithResilience(res)
		spoolPath := *spool
		if spoolPath == "" {
			spoolPath = filepath.Join(sys.StateDir(), "spool.journal")
			// A spool journaled by an earlier version keeps its name (and
			// upgrades to binary frames in place on the first compaction).
			legacy := filepath.Join(sys.StateDir(), "spool.jsonl")
			if _, err := os.Stat(spoolPath); os.IsNotExist(err) {
				if _, err := os.Stat(legacy); err == nil {
					spoolPath = legacy
				}
			}
		}
		fwd, err := federation.NewForwarder(federation.ForwarderConfig{
			Client:    remote,
			SpoolPath: spoolPath,
			Metrics:   sys.Metrics(),
			FS:        fsys,
		})
		if err != nil {
			sys.Close()
			return err
		}
		sys.OnDetection(fwd.Hook(*forwardPart))
		sys.AddCloser(func() error {
			defer res.Close()
			return fwd.Close()
		})
		log.Printf("forwarding awareness notifications to %s for %s (spool: %s)",
			*forward, *forwardPart, spoolPath)
	}

	srv := federation.NewServer(sys)
	srv.SetStreamPing(*streamPing)
	if *start {
		if err := sys.Start(); err != nil {
			sys.Close()
			return err
		}
		srv.MarkStarted()
		log.Printf("system started")
	}

	// Serve until SIGINT/SIGTERM, then shut down in order: stop accepting
	// connections, drain in-flight requests, then drain the engines and
	// flush the delivery queues (Close). An owned temporary state
	// directory is removed by Close, so a signalled daemon leaves nothing
	// behind.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	// Streaming sessions never return on their own; end them the moment
	// a shutdown begins so the connection drain below can finish. Their
	// clients resume by cursor against the next incarnation.
	httpSrv.RegisterOnShutdown(sys.Stream().Close)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		sys.Close()
		return err
	}
	log.Printf("enactment system listening on %s (state: %s)", ln.Addr(), sys.StateDir())
	if *addrFile != "" {
		// Atomic replace (tmp + fsync + rename + parent-dir fsync) so a
		// watcher polling the file never reads a torn address and the
		// rename survives a machine crash. The real filesystem on
		// purpose: an injected fault here would kill the harness's
		// ability to find the port before the fault under test fires.
		if err := fs.ReplaceFile(nil, *addrFile, []byte(ln.Addr().String()), true); err != nil {
			ln.Close()
			sys.Close()
			return fmt.Errorf("write -addr-file: %w", err)
		}
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		sys.Close()
		return err
	case <-ctx.Done():
	}
	stop() // restore default handling so a second signal kills us
	log.Printf("shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		sys.Close()
		return err
	}
	if err := sys.Close(); err != nil {
		return err
	}
	log.Printf("shutdown complete")
	return nil
}
