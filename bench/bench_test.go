package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

// cmidBin is the cmid binary every test drives, built once by TestMain.
var cmidBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "cmi-bench-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	cmidBin = filepath.Join(dir, "cmid")
	if out, err := exec.Command("go", "build", "-o", cmidBin, "github.com/mcc-cmi/cmi/cmd/cmid").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building cmid: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func testEnv(t *testing.T) (*env, options) {
	t.Helper()
	work := t.TempDir()
	e, err := newEnv(work, cmidBin)
	if err != nil {
		t.Fatal(err)
	}
	return e, options{seed: defaultSeed, window: 300 * time.Millisecond, setups: 1, work: work}
}

// closeClean tears the env down and asserts nothing of the run is left:
// no process with an exe under the temp dir, and no temp dir.
func closeClean(t *testing.T, e *env) {
	t.Helper()
	if err := e.Close(); err != nil {
		t.Errorf("teardown: %v", err)
	}
	if left := leakedProcesses(e.dir); len(left) > 0 {
		t.Errorf("processes still alive after teardown: %v", left)
	}
	if _, err := os.Stat(e.dir); !os.IsNotExist(err) {
		t.Errorf("temp dir %s still exists (%v)", e.dir, err)
	}
}

// TestSmoke runs every workload for a 300 ms window through the real
// child manager, traced, with the fixed-count loops shrunk. Together the
// five runs must assign every metric BENCHMARK.json names, and no other.
func TestSmoke(t *testing.T) {
	loopScale = 0.02
	defer func() { loopScale = 1 }()
	e, o := testEnv(t)
	defer closeClean(t, e)
	assigned := map[string]bool{}
	for _, w := range workloadNames {
		res, err := measure(context.Background(), e, o, w, true)
		if err != nil {
			t.Fatal(err)
		}
		if res.failed != 0 || res.attempted == 0 {
			t.Errorf("%s: %d of %d failed: %v", w, res.failed, res.attempted, res.firstErr)
		}
		for _, d := range endToEnd {
			if v, ok := res.e2e[d.name]; !ok || v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, d.name, v)
			}
		}
		for name := range res.e2e {
			assigned[name] = true
		}
		for name := range res.layer {
			assigned[name] = true
		}
		switch w {
		case wEnactMixed:
			if r := res.layer["awareness.match_ratio"]; r != 0 {
				t.Errorf("enact_mixed must bypass awareness: match_ratio = %v", r)
			}
		case wFanoutAck:
			if s := res.layer["fs.syncs_per_op"]; s >= 0.01 {
				t.Errorf("fanout_ack must not fsync per op: syncs_per_op = %v", s)
			}
		case wNotifyLocal:
			if u := res.layer["trace.unaccounted_ratio"]; u > 0.05 {
				t.Errorf("stage chain leaves %v of the notify latency unaccounted", u)
			}
		}
	}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !assigned[d.name] {
			t.Errorf("metric %s is in the catalogue but no workload assigns it", d.name)
		}
		delete(assigned, d.name)
	}
	for name := range assigned {
		t.Errorf("metric %s is assigned but not in the catalogue", name)
	}
}

// TestCancelMidRun cancels a run in the middle of its window: the run
// must return and teardown must leave no child alive.
func TestCancelMidRun(t *testing.T) {
	e, o := testEnv(t)
	o.window = 20 * time.Second
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(500*time.Millisecond, cancel)
	t0 := time.Now()
	if _, err := measure(ctx, e, o, wNotifyFederated, false); err == nil {
		t.Error("a cancelled run reported success")
	}
	if d := time.Since(t0); d > 5*time.Second {
		t.Errorf("cancelled run took %v to return", d)
	}
	if len(e.children) != 2 {
		t.Fatalf("run started %d children, want 2", len(e.children))
	}
	closeClean(t, e)
}

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	dump := func(w string, seed int64) []byte {
		var b bytes.Buffer
		if err := dumpSchedule(&b, w, seed, 2500); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	for _, w := range workloadNames {
		a, b, c := dump(w, 7), dump(w, 7), dump(w, 8)
		if len(a) == 0 {
			t.Errorf("%s: empty schedule", w)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed gave two different schedules", w)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same schedule", w)
		}
	}
	// The restart image costs every seed the same work.
	for _, seed := range []int64{7, 8} {
		acks := map[string]int{}
		writes := 0
		for _, o := range imagePlan(seed) {
			switch o.Op {
			case opAck:
				acks[o.Target]++
			case opPutWide:
				writes++
			}
		}
		if writes != imageWrites || len(acks) != crewSize {
			t.Errorf("seed %d: %d writes, %d acked queues", seed, writes, len(acks))
		}
		for q, n := range acks {
			if n != imageAckedPerQ {
				t.Errorf("seed %d: %s has %d acks, want %d", seed, q, n, imageAckedPerQ)
			}
		}
	}
}

// TestTracerArithmetic checks nesting, self time and the stage sum on a
// synthetic span set.
func TestTracerArithmetic(t *testing.T) {
	spans := []span{
		{ID: 1, Op: 1, Name: "client.op PUT /x", Start: 0, End: 1000},
		{ID: 2, Parent: 1, Op: 1, Name: "client.notify", Start: 0, End: 1000},
		{ID: 3, Parent: 1, Op: 1, Name: "federation.request_in", Start: 0, End: 100},
		{ID: 4, Parent: 1, Op: 1, Name: "federation.handler", Start: 100, End: 800},
		{ID: 5, Parent: 4, Op: 1, Name: "enact.apply", Start: 100, End: 150},
		{ID: 6, Parent: 4, Op: 1, Name: "fs.wal_commit", Start: 150, End: 400},
		{ID: 7, Parent: 6, Op: 1, Name: "fs.write:enact.wal", Start: 150, End: 200},
		{ID: 8, Parent: 6, Op: 1, Name: "fs.sync:enact.wal", Start: 190, End: 400}, // overlaps the write by 10
		{ID: 9, Parent: 4, Op: 1, Name: "awareness.detect", Start: 400, End: 450},
		{ID: 10, Parent: 4, Op: 1, Name: "fs.journal_commit", Start: 450, End: 700},
		{ID: 11, Parent: 4, Op: 1, Name: "stream.broadcast", Start: 720, End: 740},
		{ID: 12, Parent: 1, Op: 1, Name: "stream.push", Start: 740, End: 1000},
		{ID: 13, Parent: 1, Op: 1, Name: "federation.response_out", Start: 800, End: 900},
		// A second request without a notification must not enter the sum.
		{ID: 14, Op: 2, Name: "client.op GET /y", Start: 2000, End: 2100},
		{ID: 15, Parent: 14, Op: 2, Name: "federation.request_in", Start: 2000, End: 2050},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{
		1:  0,   // children cover 0..1000 without a gap
		4:  80,  // 700 long; children cover 100..700 and 720..740
		6:  0,   // write and sync overlap but cover 150..400 once
		7:  50,  // leaf
		14: 50,  // child covers half
		12: 260, // leaf
	} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	sum := sumStages(spans)
	if sum.requests != 1 || sum.e2e != 1000 {
		t.Fatalf("stage sum saw %d requests, e2e %d; want 1, 1000", sum.requests, sum.e2e)
	}
	// Stages: 100+50+250+50+250+20+260 = 980; the 20 between the journal
	// commit and the hook is the unaccounted time.
	if got := sum.unaccounted; got < 0.0199 || got > 0.0201 {
		t.Errorf("unaccounted ratio = %v, want 0.02", got)
	}
	if got := meanMs(spans, "federation.request_in"); got != 75e-6 {
		t.Errorf("mean request_in = %v ms, want 75e-6", got)
	}

	// The tracer builds the same tree from stamps.
	tr := newTracer()
	tr.begin("PUT /x")
	tr.handlerEnter()
	tr.io("fs.write", "/s/enact.wal", tr.now(), tr.now()+1, 10)
	tr.io("fs.sync", "/s/enact.wal", tr.now(), tr.now()+1, 0)
	tr.io("fs.write", "/s/u0.jsonl", tr.now(), tr.now()+1, 20)
	tr.hook(tr.now(), tr.now()+1)
	tr.handlerReturn()
	tr.received()
	tr.frame(tr.now())
	tr.flush()
	names := map[string]int{}
	byID := map[int]span{}
	for _, s := range tr.spans {
		names[s.Name]++
		byID[s.ID] = s
	}
	for _, stage := range stageChain {
		if names[stage] != 1 {
			t.Errorf("tracer built %d %s spans, want 1", names[stage], stage)
		}
	}
	for _, s := range tr.spans {
		if s.Name == "fs.sync:enact.wal" && byID[s.Parent].Name != "fs.wal_commit" {
			t.Errorf("WAL fsync hangs under %q, want fs.wal_commit", byID[s.Parent].Name)
		}
	}
	if tr.syncs != 1 || tr.bytes != 30 {
		t.Errorf("tracer counted %d syncs, %d bytes; want 1, 30", tr.syncs, tr.bytes)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,4,7,11,16,22,29,37,46], n=4) == [3.5, 13.5, 31.0]
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
	if p := tailQuantile(40); p != 0.75 {
		t.Errorf("tail quantile of 40 samples = %v, want 0.75", p)
	}
	if p := tailQuantile(5000); p != 0.95 {
		t.Errorf("tail quantile of 5000 samples = %v, want 0.95", p)
	}
}

// TestBenchmarkJSONMatchesCatalogue keeps BENCHMARK.json and the
// catalogue the runner emits in step, and checks the contract's limits
// on names.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Unit, Better string
		Bound              float64
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	nameRe := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
		if !nameRe.MatchString(w.Name) {
			t.Errorf("workload name %q breaks the name rule", w.Name)
		}
	}
	if fmt.Sprint(names) != fmt.Sprint(workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, runner has %v", names, workloadNames)
	}
	compare := func(kind string, got []entry, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the catalogue %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			g := got[i]
			if !nameRe.MatchString(g.Name) {
				t.Errorf("%s: metric name %q breaks the name rule", kind, g.Name)
			}
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better || g.Bound != d.bound {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the catalogue %+v", kind, i, g, d)
			}
		}
	}
	compare("end_to_end", bj.EndToEnd, endToEnd)
	compare("per_layer", bj.PerLayer, perLayer)
}
