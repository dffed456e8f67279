package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"
)

//go:embed bench.adl
var benchSpec string

// params fixes one workload run.
type params struct {
	workload string
	seed     int64
	window   time.Duration // measured window (--seconds)
	setups   int           // set-ups per run; setup_s is their median
}

// The issue sizes a run as 3 s warm-up + 25 s window; every other
// length scales by window/25 s so one recorded factor covers them all.
func (p params) warmup() time.Duration { return p.window * 3 / 25 }

const slices = 5 // ops_per_s is the median of this many equal slices of the window

// A result is what one workload run measured.
type result struct {
	workload  string
	attempted int
	failed    int
	firstErr  error
	e2e       map[string]float64
	layer     map[string]float64
	counts    map[string]int // samples behind each metric
}

func newResult(workload string) *result {
	return &result{workload: workload, e2e: map[string]float64{}, layer: map[string]float64{}, counts: map[string]int{}}
}

// A topo is the set of children one set-up produced.
type topo struct {
	main   *child   // receives the load
	remote *child   // notify_federated: domain B, where the subscriber listens
	procs  []string // process instance ids, by instance index
}

func (t *topo) children() []*child {
	if t.remote != nil {
		return []*child{t.main, t.remote}
	}
	return []*child{t.main}
}

func (t *topo) stop() {
	for _, c := range t.children() {
		c.stop()
	}
}

// setUp boots the workload's cmid children and seeds spec, directory and
// process instances over HTTP; it returns when healthz answers 200.
func setUp(ctx context.Context, e *env, ctl *conn, workload string) (*topo, error) {
	t := &topo{}
	specPath := filepath.Join(e.dir, "bench.adl")
	if err := os.WriteFile(specPath, []byte(benchSpec), 0o644); err != nil {
		return nil, err
	}
	var mainArgs []string
	if workload != wFanoutAck {
		mainArgs = append(mainArgs, "-sync-journal")
	}
	if workload == wNotifyFederated {
		dir, err := e.mkdir("remote")
		if err != nil {
			return nil, err
		}
		// Domain B holds only the forwarded queue: no spec, started at once.
		b, err := e.start(ctx, "remote", dir, "-sync-journal", "-start")
		if err != nil {
			return nil, err
		}
		t.remote = b
		if _, err := b.waitHealthy(ctx, ctl.hc); err != nil {
			return nil, err
		}
		mainArgs = append(mainArgs, "-forward", b.base(), "-forward-participant", "u0")
	}
	dir, err := e.mkdir("main")
	if err != nil {
		return nil, err
	}
	a, err := e.start(ctx, "main", dir, append(mainArgs, "-spec", specPath)...)
	if err != nil {
		return nil, err
	}
	t.main = a
	post := func(path, body string) ([]byte, error) {
		return ctl.do(ctx, http.MethodPost, a.base()+path, body)
	}
	member := func(id, role string) error {
		if _, err := post("/api/directory/participants", `{"id":"`+id+`","name":"`+id+`"}`); err != nil {
			return err
		}
		_, err := post("/api/directory/roles", `{"role":"`+role+`","participant":"`+id+`"}`)
		return err
	}
	if err := member("u0", "Solo"); err != nil {
		return nil, err
	}
	for i := 0; i < crewSize; i++ {
		if err := member("w"+strconv.Itoa(i), "Crew16"); err != nil {
			return nil, err
		}
	}
	if _, err := post("/api/system/start", ""); err != nil {
		return nil, err
	}
	for i := 0; i < instancesOf(workload); i++ {
		b, err := post("/api/processes", `{"schema":"Bench","initiator":"u0"}`)
		if err != nil {
			return nil, err
		}
		var r struct{ ID string }
		if err := json.Unmarshal(b, &r); err != nil || r.ID == "" {
			return nil, fmt.Errorf("start process: bad response %q", b)
		}
		t.procs = append(t.procs, r.ID)
	}
	if _, err := a.waitHealthy(ctx, ctl.hc); err != nil {
		return nil, err
	}
	return t, nil
}

// A send is one notification-causing write: its unique value and the
// moment the client sent it.
type send struct {
	value int64
	at    int64
}

// A client is one closed-loop load connection and what it has to
// remember between the ops of a cycle.
type client struct {
	c     *conn
	rec   *recorder
	st    *stream
	base  string
	procs []string

	actID    string  // enact_mixed: the activity this cycle instantiated
	causeAt  int64   // send time of the op whose effect the next read must show
	putVal   int64   // fanout_ack: value of this cycle's Wide write
	toAck    []int64 // fanout_ack: ids the last get_notifs returned
	sends    []send  // notify_*: writes awaiting their SSE frame
	observed []sample

	puts, acks  int
	completed   map[int]int   // enact_mixed: completes per instance
	lastWritten map[int]int64 // last value written per instance
}

func instIndex(target string) int {
	n, _ := strconv.Atoi(target[1:])
	return n
}

// exec performs one scheduled op. Errors are already counted by the
// recorder; exec only reports them so the loop can stop on a dead run.
func (cl *client) exec(ctx context.Context, o op) error {
	r := cl.rec
	switch o.Op {
	case opPutTally, opPutWide:
		field := "Tally"
		if o.Op == opPutWide {
			field = "Wide"
		}
		i := instIndex(o.Target)
		url := cl.base + "/api/contexts/" + cl.procs[i] + "/bc/" + field
		_, at, err := r.timed(ctx, cl.c, kindWrite, http.MethodPut, url, `{"type":"int","value":`+strconv.FormatInt(o.Value, 10)+`}`)
		if err != nil {
			return err
		}
		cl.puts++
		cl.lastWritten[i] = o.Value
		cl.causeAt, cl.putVal = at, o.Value
		if o.Op == opPutTally {
			cl.sends = append(cl.sends, send{value: o.Value, at: at})
		}
	case opGetTally:
		url := cl.base + "/api/contexts/" + cl.procs[instIndex(o.Target)] + "/bc/Tally"
		b, _, err := r.timed(ctx, cl.c, kindRead, http.MethodGet, url, "")
		if err != nil {
			return err
		}
		var fv struct{ Value int64 }
		jerr := json.Unmarshal(b, &fv)
		r.check(jerr == nil && fv.Value == o.Value, "read-back of %s: got %s, want %d", o.Target, b, o.Value)
	case opInstantiate:
		url := cl.base + "/api/processes/" + cl.procs[instIndex(o.Target)] + "/activities"
		b, _, err := r.timed(ctx, cl.c, kindWrite, http.MethodPost, url, `{"var":"Step","user":"u0"}`)
		if err != nil {
			return err
		}
		var info struct{ ID string }
		if jerr := json.Unmarshal(b, &info); jerr != nil || info.ID == "" {
			r.check(false, "instantiate: bad response %q", b)
			return fmt.Errorf("instantiate: bad response")
		}
		cl.actID = info.ID
	case opStart, opComplete:
		verb := "start"
		if o.Op == opComplete {
			verb = "complete"
		}
		_, at, err := r.timed(ctx, cl.c, kindWrite, http.MethodPost, cl.base+"/api/activities/"+cl.actID+"/"+verb, `{"user":"u0"}`)
		if err != nil {
			return err
		}
		if o.Op == opComplete {
			cl.causeAt = at
			cl.completed[instIndex(o.Target)]++
		}
	case opGetWorklist:
		b, _, err := r.timed(ctx, cl.c, kindRead, http.MethodGet, cl.base+"/api/worklist/"+o.Target, "")
		if err != nil {
			return err
		}
		r.check(bytes.Contains(b, []byte(`"ActivityID":"`+cl.actID+`",`)), "worklist of %s lacks started activity %s", o.Target, cl.actID)
	case opGetMonitor:
		url := cl.base + "/api/processes/" + cl.procs[instIndex(o.Target)] + "/monitor"
		b, _, err := r.timed(ctx, cl.c, kindRead, http.MethodGet, url, "")
		if err != nil {
			return err
		}
		// The manager learns of the completion from the monitor.
		ok := bytes.Contains(b, []byte(`"ActivityID":"`+cl.actID+`","Var":"Step","State":"Completed"`))
		r.check(ok, "monitor of %s does not show %s Completed", o.Target, cl.actID)
		cl.observed = append(cl.observed, sample{start: cl.causeAt, end: r.now()})
	case opGetNotifs:
		b, _, err := r.timed(ctx, cl.c, kindRead, http.MethodGet, cl.base+"/api/notifications/"+o.Target, "")
		if err != nil {
			return err
		}
		seenAt := r.now()
		var ns []struct {
			ID     int64 `json:"id"`
			Params struct {
				Value int64 `json:"newFieldValue"`
			} `json:"params"`
		}
		if jerr := json.Unmarshal(b, &ns); jerr != nil {
			r.check(false, "notifications of %s: %v", o.Target, jerr)
			return jerr
		}
		cl.toAck = cl.toAck[:0]
		found, ordered := false, true
		for i, n := range ns {
			cl.toAck = append(cl.toAck, n.ID)
			found = found || n.Params.Value == cl.putVal
			ordered = ordered && (i == 0 || n.ID > ns[i-1].ID)
		}
		// The recipient learns of this cycle's write from its queue.
		r.check(found && ordered, "queue of %s: write %d visible=%v, ids ascending=%v", o.Target, cl.putVal, found, ordered)
		cl.observed = append(cl.observed, sample{start: cl.causeAt, end: seenAt})
	case opAckPending:
		for _, id := range cl.toAck {
			url := cl.base + "/api/notifications/" + o.Target + "/" + strconv.FormatInt(id, 10) + "/ack"
			if _, _, err := r.timed(ctx, cl.c, kindWrite, http.MethodPost, url, ""); err != nil {
				return err
			}
			cl.acks++
		}
	default:
		return fmt.Errorf("client cannot execute op %q", o.Op)
	}
	return nil
}

// loop runs the client's closed loop until the deadline.
func (cl *client) loop(ctx context.Context, until time.Time) {
	for time.Now().Before(until) && ctx.Err() == nil {
		if err := cl.exec(ctx, cl.st.next()); err != nil && cl.rec.failed > 100 {
			return // a dead run; do not spin on errors
		}
	}
}

// An edge is what the runner reads from outside the children at one
// edge of the measured window.
type edge struct {
	main, remote scrape        // GET /api/metrics of each child
	cpu          time.Duration // utime+stime of the children
	rssMB        float64       // their peak RSS
	steal, total float64       // machine-wide CPU jiffies
}

// takeEdge waits for the moment and reads the edge.
func takeEdge(ctx context.Context, ctl *conn, t *topo, at time.Time) (edge, error) {
	var e edge
	select {
	case <-time.After(time.Until(at)):
	case <-ctx.Done():
		return e, ctx.Err()
	}
	var err error
	if e.main, err = scrapeChild(ctx, ctl, t.main.base()); err != nil {
		return e, err
	}
	if t.remote != nil {
		if e.remote, err = scrapeChild(ctx, ctl, t.remote.base()); err != nil {
			return e, err
		}
	}
	for _, c := range t.children() {
		if cpu, rss, err := procUsage(c.pid); err == nil {
			e.cpu += cpu
			e.rssMB += rss
		}
	}
	e.steal, e.total = cpuJiffies()
	return e, nil
}

// runHTTP runs one of the four client workloads against real cmid
// children: set-up (several times), warm-up, measured window,
// verification.
func runHTTP(ctx context.Context, e *env, p params) (*result, error) {
	res := newResult(p.workload)
	ctl := newConn(e) // control connection: seeding, scrapes, verification; carries no load

	var setupS []float64
	var t *topo
	for k := 0; k < p.setups; k++ {
		if t != nil {
			t.stop()
		}
		t0 := time.Now()
		var err error
		if t, err = setUp(ctx, e, ctl, p.workload); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	res.e2e["setup_s"] = median(setupS)
	res.counts["setup_s"] = len(setupS)
	res.layer["system.boot_ms"] = t.main.bootMs

	epoch := time.Now()
	var sub *subscriber
	subDomain := t.main
	if t.remote != nil {
		subDomain = t.remote
	}
	if p.workload == wNotifyLocal || p.workload == wNotifyFederated {
		var err error
		if sub, err = subscribe(ctx, e, subDomain.base(), "u0", epoch); err != nil {
			return nil, err
		}
	}
	clients := make([]*client, clientsOf(p.workload))
	for i := range clients {
		st, err := newStream(p.workload, p.seed, i)
		if err != nil {
			return nil, err
		}
		clients[i] = &client{c: newConn(e), rec: newRecorder(epoch), st: st, base: t.main.base(), procs: t.procs,
			completed: map[int]int{}, lastWritten: map[int]int64{}}
	}

	winStart := epoch.Add(p.warmup())
	winEnd := winStart.Add(p.window)
	var wg sync.WaitGroup
	for _, cl := range clients {
		wg.Add(1)
		go func(cl *client) {
			defer wg.Done()
			cl.loop(ctx, winEnd)
		}(cl)
	}
	// Scrape at both edges of the window while the load runs.
	before, err := takeEdge(ctx, ctl, t, winStart)
	var after edge
	if err == nil {
		after, err = takeEdge(ctx, ctl, t, winEnd)
	}
	wg.Wait()
	if err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// ---- verification (untimed) ----
	ver := newRecorder(epoch)
	w0, w1 := int64(winStart.Sub(epoch)), int64(winEnd.Sub(epoch))
	var notify []point
	if sub != nil {
		sends := clients[0].sends // notify_* have one writer
		total := len(sends)
		sub.waitFrames(total, 10*time.Second)
		sub.close()
		notify = matchFrames(ver, sends, sub.frames, w0, w1)
		ver.check(sub.err == nil, "subscriber: %v", sub.err)
		var pending []json.RawMessage
		gerr := ctl.getJSON(ctx, subDomain.base()+"/api/notifications/u0", &pending)
		ver.check(gerr == nil && len(pending) == total, "u0 queue holds %d notifications, want %d (%v)", len(pending), total, gerr)
	}
	for _, cl := range clients {
		for _, s := range cl.observed {
			if s.start >= w0 && s.end < w1 {
				notify = append(notify, point{at: s.end - w0, ms: float64(s.end-s.start) / 1e6})
			}
		}
	}
	verifyFinalState(ctx, ctl, ver, p.workload, t, clients)
	if err := verifyQuietPaths(ctx, ctl, ver, t, res.layer); err != nil {
		return nil, err
	}

	// ---- metrics ----
	var ops, reads []point
	var opEnds []float64
	maxStall := 0.0
	for _, cl := range clients {
		res.attempted += cl.rec.attempted
		res.failed += cl.rec.failed
		if res.firstErr == nil {
			res.firstErr = cl.rec.firstErr
		}
		for _, s := range cl.rec.samples {
			if s.end >= w0 && s.end < w1 {
				opEnds = append(opEnds, float64(s.end-w0))
			}
			if s.start < w0 || s.end >= w1 {
				continue
			}
			pt := point{at: s.end - w0, ms: float64(s.end-s.start) / 1e6}
			if pt.ms > maxStall {
				maxStall = pt.ms
			}
			if s.kind == kindRead {
				reads = append(reads, pt)
			} else {
				ops = append(ops, pt)
			}
		}
	}
	res.attempted += ver.attempted
	res.failed += ver.failed
	if res.firstErr == nil {
		res.firstErr = ver.firstErr
	}
	perSlice := make([]float64, slices)
	sliceNs := float64(p.window) / slices
	for _, at := range opEnds {
		if i := int(at / sliceNs); i < slices {
			perSlice[i]++
		}
	}
	for i := range perSlice {
		perSlice[i] /= sliceNs / 1e9
	}
	res.e2e["ops_per_s"] = median(perSlice)
	res.counts["ops_per_s"] = len(opEnds)
	slicedLatency(res, "op", ops, p.window)
	slicedLatency(res, "notify", notify, p.window)
	slicedLatency(res, "read", reads, p.window)
	res.layer["client.op_p99_ms"] = percentile(sortedMs(ops), 0.99)
	res.layer["client.notify_p99_ms"] = percentile(sortedMs(notify), 0.99)
	res.layer["client.samples"] = float64(len(opEnds))
	res.layer["client.stall_max_ms"] = maxStall
	res.layer["client.fail_ratio"] = ratio(float64(res.failed), float64(res.attempted))

	l := res.layer
	windowMetrics(l, p.workload, before, after, float64(len(opEnds)))
	l["system.recover_ms"] = recoveryMs(ctx, ctl, t.main)
	return res, nil
}

// verifyFinalState checks, after the load has stopped, that the server
// holds what the clients wrote: the last value of every field, every
// completed step, and writes x recipients - acks in the crew's queues.
func verifyFinalState(ctx context.Context, ctl *conn, ver *recorder, workload string, t *topo, clients []*client) {
	base := t.main.base()
	field := "Tally"
	if workload == wFanoutAck {
		field = "Wide"
	}
	puts, acks := 0, 0
	for _, cl := range clients {
		puts, acks = puts+cl.puts, acks+cl.acks
		for i, want := range cl.lastWritten {
			var fv struct{ Value int64 }
			gerr := ctl.getJSON(ctx, base+"/api/contexts/"+t.procs[i]+"/bc/"+field, &fv)
			ver.check(gerr == nil && fv.Value == want, "final %s of i%d = %d, want %d (%v)", field, i, fv.Value, want, gerr)
		}
		for i, want := range cl.completed {
			b, gerr := ctl.do(ctx, http.MethodGet, base+"/api/processes/"+t.procs[i]+"/monitor", "")
			got := bytes.Count(b, []byte(`"Var":"Step","State":"Completed"`))
			ver.check(gerr == nil && got == want, "i%d shows %d completed steps, want %d (%v)", i, got, want, gerr)
		}
	}
	if workload != wFanoutAck {
		return
	}
	pendingTotal := 0
	for i := 0; i < crewSize; i++ {
		var pending []json.RawMessage
		if gerr := ctl.getJSON(ctx, base+"/api/notifications/w"+strconv.Itoa(i), &pending); gerr != nil {
			ver.check(false, "queue w%d: %v", i, gerr)
		}
		pendingTotal += len(pending)
	}
	ver.check(pendingTotal == puts*crewSize-acks, "crew queues hold %d, want %d writes x %d - %d acks", pendingTotal, puts, crewSize, acks)
}

// verifyQuietPaths checks that the slow paths stayed unused — no
// federation retry, an empty spool, no session dropped to replay — for
// otherwise the latencies measured are those paths', and records the
// three counts as metrics.
func verifyQuietPaths(ctx context.Context, ctl *conn, ver *recorder, t *topo, l map[string]float64) error {
	var retries, depth, dropped float64
	for _, c := range t.children() {
		s, err := scrapeChild(ctx, ctl, c.base())
		if err != nil {
			return fmt.Errorf("final scrape: %w", err)
		}
		retries += s.sum("cmi_federation_retries_total") + s.sum("cmi_federation_pushes_total", `result="failed"`)
		depth += s.sum("cmi_federation_spool_depth")
		dropped += s.sum("cmi_stream_dropped_to_replay_total")
	}
	ver.check(retries == 0, "federation retried or failed %v pushes", retries)
	ver.check(depth == 0, "federation spool still holds %v entries", depth)
	ver.check(dropped == 0, "%v stream sessions dropped to replay", dropped)
	l["federation.retries"], l["federation.spool_depth_end"], l["stream.dropped_to_replay"] = retries, depth, dropped
	return nil
}

// windowMetrics fills the per-layer metrics of source S: what the
// children's own counters and /proc moved by between the two edges of
// the window, per client request where that is the natural base.
func windowMetrics(l map[string]float64, workload string, b, a edge, nOps float64) {
	before, after := b.main, a.main
	l["fs.syncs_per_op"] = ratio(delta(before, after, "cmi_fs_syncs_total")+delta(before, after, "cmi_fs_dir_syncs_total"), nOps)
	l["enact.wal_appends_per_op"] = ratio(delta(before, after, "cmi_enact_wal_appends_total"), nOps)
	l["enact.stripe_contended_ratio"] = ratio(delta(before, after, "cmi_enact_stripe_contended_total"), delta(before, after, "cmi_enact_stripe_ops_total"))
	l["cedmos.detect_mean_us"] = histMean(before, after, "cmi_cedmos_detect_seconds") * 1e6
	// Primitive events emitted: every state transition and every context write.
	emitted := delta(before, after, "cmi_enact_transitions_total") + delta(before, after, "cmi_http_requests_total", `code="2xx"`, `route="PUT /api/contexts/`)
	l["awareness.match_ratio"] = ratio(delta(before, after, "cmi_awareness_detections_total"), emitted)
	l["delivery.commit_batch_mean"] = histMean(before, after, "cmi_delivery_commit_batch_size")
	l["delivery.append_mean_us"] = histMean(before, after, "cmi_delivery_journal_append_seconds") * 1e6
	queues := 1.0
	if workload == wFanoutAck {
		queues = crewSize
	}
	l["delivery.history_per_queue_end"] = after.sum("cmi_delivery_enqueued_total") / queues
	// Frames are written where the subscriber listens.
	if a.remote != nil {
		l["stream.frame_write_mean_us"] = histMean(b.remote, a.remote, "cmi_stream_frame_write_seconds") * 1e6
	} else {
		l["stream.frame_write_mean_us"] = histMean(before, after, "cmi_stream_frame_write_seconds") * 1e6
	}
	// Server-side handler time by method; the runner's own scrapes are
	// taken out of the GET side.
	l["federation.http_write_mean_us"] = histMean(before, after, "cmi_http_request_seconds", `route="P`) * 1e6
	getSum, getN := histDelta(before, after, "cmi_http_request_seconds", `route="GET /api/`)
	ownSum, ownN := histDelta(before, after, "cmi_http_request_seconds", `route="GET /api/metrics"`)
	l["federation.http_read_mean_us"] = ratio(getSum-ownSum, getN-ownN) * 1e6
	l["federation.push_mean_ms"] = histMean(before, after, "cmi_federation_redelivery_seconds") * 1e3
	hits, misses := delta(before, after, "cmi_wire_pool_hits_total"), delta(before, after, "cmi_wire_pool_misses_total")
	l["wire.pool_hit_ratio"] = ratio(hits, hits+misses)
	l["system.cpu_ms_per_op"] = ratio(float64(a.cpu-b.cpu)/1e6, nOps)
	l["system.rss_peak_mb"] = a.rssMB
	l["system.steal_ratio"] = ratio(a.steal-b.steal, a.total-b.total)
}

// A point is one latency observation and when in the window it ended.
type point struct {
	at int64 // ns since the window opened
	ms float64
}

func sortedMs(pts []point) []float64 {
	out := make([]float64, len(pts))
	for i, p := range pts {
		out[i] = p.ms
	}
	sort.Float64s(out)
	return out
}

// slicedLatency fills <name>_p50_ms and <name>_p95_ms from a latency
// population the way ops_per_s is taken: each percentile is computed
// inside every slice of the window and the median of the slices is
// reported, so one fsync stall of a few hundred milliseconds (observed)
// moves neither.
func slicedLatency(res *result, name string, pts []point, window time.Duration) {
	sliceNs := int64(window) / slices
	bySlice := make([][]float64, slices)
	for _, p := range pts {
		if i := int(p.at / sliceNs); i >= 0 && i < slices {
			bySlice[i] = append(bySlice[i], p.ms)
		}
	}
	var p50s, p95s []float64
	for _, ms := range bySlice {
		sort.Float64s(ms)
		p50s = append(p50s, percentile(ms, 0.5))
		p95s = append(p95s, percentile(ms, tailQuantile(len(ms))))
	}
	res.e2e[name+"_p50_ms"] = median(p50s)
	res.e2e[name+"_p95_ms"] = median(p95s)
	res.counts[name+"_p50_ms"], res.counts[name+"_p95_ms"] = len(pts), len(pts)
}

// latency fills <name>_p50_ms and the tail percentile of one latency
// population taken whole (the restart workload's few dozen boots). The tail is p95, or with fewer than 200 samples the
// highest percentile that still has ten samples beyond it.
func latency(res *result, name string, ms []float64) {
	s := sortedCopy(ms)
	res.e2e[name+"_p50_ms"] = percentile(s, 0.5)
	res.e2e[name+"_p95_ms"] = percentile(s, tailQuantile(len(s)))
	res.counts[name+"_p50_ms"], res.counts[name+"_p95_ms"] = len(s), len(s)
}

// matchFrames pairs every notification-causing write with its SSE frame
// by value, one to one, and returns the send->frame latencies (ms) of
// the writes sent inside the window. Unmatched writes, duplicated
// frames and ids out of order are failures.
func matchFrames(ver *recorder, sends []send, frames []frame, w0, w1 int64) []point {
	at := make(map[int64]int64, len(frames))
	dups, disorder := 0, 0
	for i, f := range frames {
		if _, seen := at[f.value]; seen {
			dups++
		}
		at[f.value] = f.at
		if i > 0 && f.id <= frames[i-1].id {
			disorder++
		}
	}
	ver.check(dups == 0, "%d duplicated notification frames", dups)
	ver.check(disorder == 0, "%d notification frames out of id order", disorder)
	ver.check(len(frames) <= len(sends), "%d frames for %d writes", len(frames), len(sends))
	var lat []point
	unmatched := 0
	for _, s := range sends {
		got, ok := at[s.value]
		if !ok {
			unmatched++
			continue
		}
		if s.at >= w0 && got < w1 {
			lat = append(lat, point{at: got - w0, ms: float64(got-s.at) / 1e6})
		}
	}
	ver.check(unmatched == 0, "%d of %d writes never reached the subscriber", unmatched, len(sends))
	return lat
}

// recoveryMs asks a child how long its own recovery pass took.
func recoveryMs(ctx context.Context, ctl *conn, c *child) float64 {
	var info struct {
		ElapsedMs float64 `json:"elapsedMs"`
	}
	if err := ctl.getJSON(ctx, c.base()+"/api/system/recovery", &info); err != nil {
		return 0
	}
	return info.ElapsedMs
}
