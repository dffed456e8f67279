package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"time"

	cmi "github.com/mcc-cmi/cmi"
	"github.com/mcc-cmi/cmi/internal/delivery"
	"github.com/mcc-cmi/cmi/internal/event"
	"github.com/mcc-cmi/cmi/internal/federation"
	cmifs "github.com/mcc-cmi/cmi/internal/fs"
	"github.com/mcc-cmi/cmi/internal/vclock"
)

// An inproc is what cmd/cmid assembles — cmi.New + federation.NewServer
// on a loopback listener — inside the runner's own process, so that
// span-recording shims can sit at the public seams: the http.Handler,
// Config.FS, the store's commit hook, the event observers and the
// detection hook. With a nil tracer it is the same assembly, no shims.
type inproc struct {
	sys   *cmi.System
	srv   *http.Server
	base  string
	procs []string
}

func startInproc(e *env, workload string, tr *tracer) (*inproc, error) {
	dir, err := e.mkdir("inproc")
	if err != nil {
		return nil, err
	}
	cfg := cmi.Config{
		Clock:       vclock.NewSystem(),
		StateDir:    dir,
		SyncJournal: workload != wFanoutAck,
	}
	if tr != nil {
		cfg.FS = tracedFS{cmifs.OS, tr}
	}
	sys, err := cmi.New(cfg)
	if err != nil {
		return nil, err
	}
	p := &inproc{sys: sys}
	if err := seedSystem(sys); err != nil {
		sys.Close()
		return nil, err
	}
	for i := 0; i < instancesOf(workload); i++ {
		pi, err := sys.StartProcess("Bench", "u0")
		if err != nil {
			sys.Close()
			return nil, err
		}
		p.procs = append(p.procs, pi.ID())
	}
	fed := federation.NewServer(sys)
	fed.MarkStarted()
	handler := fed.Handler()
	if tr != nil {
		inner := handler
		handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/api/stream/notifications" {
				inner.ServeHTTP(w, r) // the subscription outlives every request
				return
			}
			tr.handlerEnter()
			inner.ServeHTTP(w, r)
			tr.handlerReturn()
		})
		// Re-register the commit hook as a wrapper around the hub's
		// Broadcast (what system.New wires).
		sys.Store().OnCommit(func(participant string, ns []delivery.Notification) {
			t0 := tr.now()
			sys.Stream().Broadcast(participant, ns)
			tr.hook(t0, tr.now())
		})
		emitted := event.ConsumerFunc(func(event.Event) { tr.count(&tr.emitted) })
		sys.Coordination().Observe(emitted)
		sys.Contexts().Observe(emitted)
		sys.OnDetection(func(string, []string, event.Event) { tr.count(&tr.detected) })
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		sys.Close()
		return nil, err
	}
	p.base = "http://" + ln.Addr().String()
	p.srv = &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	p.srv.RegisterOnShutdown(sys.Stream().Close)
	go p.srv.Serve(ln) // returns when close() shuts the server down
	return p, nil
}

func (p *inproc) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	p.srv.Shutdown(ctx)
	p.sys.Close()
}

// registry returns the system's metric registry as a scrape.
func (p *inproc) registry() scrape {
	var buf bytes.Buffer
	p.sys.Metrics().WriteTo(&buf) // a bytes.Buffer cannot fail
	return parseScrape(buf.Bytes())
}

// tracedOps is the fixed number of scheduled ops of each traced mix
// (about 2,000 requests each; a fanout_ack cycle of 3 scheduled ops is
// 10 requests at concurrency 1).
var tracedOps = map[string]int{wNotifyLocal: 2000, wEnactMixed: 2000, wFanoutAck: 600}

// A mixRun is one fixed-count, concurrency-1 run of a workload's mix
// against an inproc.
type mixRun struct {
	requests   int
	headline   []float64 // notify latency (notify_local) or write-op latency, ms
	wal        float64   // WAL appends during the mix
	syncs      int64     // fsyncs during the mix (traced only)
	bytes      int64     // bytes written to durable files during the mix (traced only)
	failed     int
	firstErr   error
	detections int64
	emitted    int64
}

// runMix drives the workload's mix at concurrency 1 for a fixed op
// count: each request owns one WAL group and one journal group, so
// every count repeats exactly for a given seed.
func runMix(ctx context.Context, e *env, workload string, seed int64, tr *tracer) (*mixRun, error) {
	p, err := startInproc(e, workload, tr)
	if err != nil {
		return nil, err
	}
	defer p.close()
	epoch := time.Now()
	if tr != nil {
		epoch = tr.epoch
	}
	var sub *subscriber
	if workload == wNotifyLocal {
		if sub, err = subscribe(ctx, e, p.base, "u0", epoch); err != nil {
			return nil, err
		}
		defer sub.close()
	}
	st, err := newStream(workload, seed, 0)
	if err != nil {
		return nil, err
	}
	c := newConn(e)
	c.trace = tr
	cl := &client{c: c, rec: newRecorder(epoch), st: st, base: p.base, procs: p.procs,
		completed: map[int]int{}, lastWritten: map[int]int64{}}
	run := &mixRun{}
	before := p.registry()
	var syncs0, bytes0 int64 // seeding's share, not the mix's
	if tr != nil {
		syncs0, bytes0 = tr.load(&tr.syncs), tr.load(&tr.bytes)
	}
	for n, ops := 0, scaled(tracedOps[workload], 30); n < ops; n++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		o := cl.st.next()
		if err := cl.exec(ctx, o); err != nil {
			return nil, fmt.Errorf("traced mix: %w", err)
		}
		if o.Op == opPutTally {
			f, ok := sub.waitFrames(len(cl.sends), 10*time.Second)
			sent := cl.sends[len(cl.sends)-1]
			if !ok || f.value != sent.value {
				return nil, fmt.Errorf("traced mix: write %d got frame %d (arrived=%v)", sent.value, f.value, ok)
			}
			if tr != nil {
				tr.frame(f.at)
			}
			run.headline = append(run.headline, float64(f.at-sent.at)/1e6)
		}
	}
	if tr != nil {
		tr.flush()
	}
	p.sys.Quiesce() // detection hooks run on their own goroutines
	after := p.registry()
	run.wal = delta(before, after, "cmi_enact_wal_appends_total")
	run.requests = len(cl.rec.samples)
	run.failed, run.firstErr = cl.rec.failed, cl.rec.firstErr
	if workload != wNotifyLocal {
		for _, s := range cl.rec.samples {
			if s.kind == kindWrite {
				run.headline = append(run.headline, float64(s.end-s.start)/1e6)
			}
		}
	}
	if tr != nil {
		run.detections, run.emitted = tr.load(&tr.detected), tr.load(&tr.emitted)
		run.syncs, run.bytes = tr.load(&tr.syncs)-syncs0, tr.load(&tr.bytes)-bytes0
	}
	return run, nil
}

// addTraced adds the per-layer metrics that need the runner's own
// process: the traced mix (T) and the direct loops (D).
func addTraced(ctx context.Context, e *env, o options, p params, res *result) error {
	l := res.layer
	if _, ok := tracedOps[p.workload]; ok {
		plain, err := runMix(ctx, e, p.workload, p.seed, nil)
		if err != nil {
			return err
		}
		tr := newTracer()
		traced, err := runMix(ctx, e, p.workload, p.seed, tr)
		if err != nil {
			return err
		}
		if err := tr.writeJSONL(filepath.Join(o.work, "trace-"+p.workload+".jsonl")); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
		res.attempted += plain.requests + traced.requests
		res.failed += plain.failed + traced.failed
		if res.firstErr == nil {
			res.firstErr = traced.firstErr
		}
		n := float64(traced.requests)
		// Counts from the fixed-count mix repeat exactly, so they replace
		// the time-window estimates of the child run.
		l["fs.syncs_per_op"] = float64(traced.syncs) / n
		l["fs.bytes_per_op"] = float64(traced.bytes) / n
		l["enact.wal_appends_per_op"] = traced.wal / n
		l["awareness.match_ratio"] = ratio(float64(traced.detections), float64(traced.emitted))
		for _, name := range []string{"fs.wal_commit", "fs.journal_commit", "enact.apply", "awareness.detect",
			"stream.broadcast", "stream.push", "federation.request_in", "federation.response_out"} {
			l[name+"_ms"] = meanMs(tr.spans, name)
			res.counts[name+"_ms"] = countSpans(tr.spans, name)
		}
		sum := sumStages(tr.spans)
		l["trace.unaccounted_ratio"] = sum.unaccounted
		res.counts["trace.unaccounted_ratio"] = sum.requests
		l["trace.overhead_ratio"] = ratio(median(traced.headline), median(plain.headline)) - 1
		res.counts["trace.overhead_ratio"] = len(traced.headline)
		if sum.requests > 0 {
			fmt.Printf("-- %s traced: %d notifying requests, e2e mean %.4f ms; stages:", p.workload, sum.requests, float64(sum.e2e)/float64(sum.requests)/1e6)
			for _, stage := range stageChain {
				fmt.Printf(" %s=%.4f", stage, float64(sum.stages[stage])/float64(sum.requests)/1e6)
			}
			fmt.Printf(" ms; unaccounted %.4f\n", sum.unaccounted)
		}
	}
	return directLoops(ctx, e, l)
}

func countSpans(spans []span, name string) int {
	n := 0
	for _, s := range spans {
		if s.Name == name {
			n++
		}
	}
	return n
}
