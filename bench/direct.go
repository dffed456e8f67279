package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	cmi "github.com/mcc-cmi/cmi"
	"github.com/mcc-cmi/cmi/internal/adl"
	"github.com/mcc-cmi/cmi/internal/awareness"
	"github.com/mcc-cmi/cmi/internal/core"
	"github.com/mcc-cmi/cmi/internal/delivery"
	"github.com/mcc-cmi/cmi/internal/enact"
	"github.com/mcc-cmi/cmi/internal/event"
	"github.com/mcc-cmi/cmi/internal/federation"
	cmifs "github.com/mcc-cmi/cmi/internal/fs"
	cmistream "github.com/mcc-cmi/cmi/internal/stream"
	"github.com/mcc-cmi/cmi/internal/vclock"
	"github.com/mcc-cmi/cmi/internal/wire"
)

// The direct loops (source D): a fixed number of calls to one layer's
// public functions, no HTTP, no child. They cost what the layer costs
// alone and say which layer an end-to-end change came from.

// loopScale shrinks every fixed-count loop; only the smoke test sets it.
var loopScale = 1.0

// scaled is n scaled by loopScale, at least min.
func scaled(n, min int) int {
	if s := int(float64(n) * loopScale); s > min {
		return s
	}
	return min
}

// per returns the mean time of n calls in the given unit.
func per(t0 time.Time, n int, unit time.Duration) float64 {
	return float64(time.Since(t0)) / float64(n) / float64(unit)
}

// sampleNotification has the shape of a real WideMoved notification.
func sampleNotification(value int64) delivery.Notification {
	return delivery.Notification{
		Time:        time.Unix(1_700_000_000, 0).UTC(),
		Schema:      "WideMoved",
		Description: "wide moved",
		Params: map[string]any{
			"awarenessSchema": "WideMoved", "contextId": "ctx-1", "contextName": "BenchCtx",
			"deliveryAssignment": "identity", "deliveryRole": "org:Crew16", "description": "wide moved",
			"fieldName": "Wide", "intInfo": value, "newFieldValue": value, "oldFieldValue": value - 1,
			"priority": int64(0), "processInstanceId": "p-1", "processSchemaId": "Bench",
		},
	}
}

func directLoops(ctx context.Context, e *env, l map[string]float64) error {
	for _, loop := range []func(*env, map[string]float64) error{
		adlLoop, wireLoop, cedmosLoop, deliveryLoops, streamLoop, enactLoop, spoolLoop,
	} {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := loop(e, l); err != nil {
			return err
		}
	}
	return nil
}

func adlLoop(_ *env, l map[string]float64) error {
	n := scaled(200, 5)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if _, err := adl.Parse(benchSpec); err != nil {
			return err
		}
	}
	l["adl.parse_ms"] = per(t0, n, time.Millisecond)
	return nil
}

func wireLoop(_ *env, l map[string]float64) error {
	n := scaled(200_000, 100)
	payload := make([]byte, 256)
	for i := range payload {
		payload[i] = byte(i)
	}
	var buf []byte
	t0 := time.Now()
	for i := 0; i < n; i++ {
		buf = wire.AppendFrame(buf[:0], payload)
		buf = append(buf, '\n')
		rec, isFrame, ok := wire.NewScanner(buf).Next()
		if !ok || !isFrame || len(rec) != len(payload) {
			return fmt.Errorf("wire: frame did not round-trip")
		}
	}
	l["wire.frame_roundtrip_ns"] = per(t0, n, time.Nanosecond)
	return nil
}

func cedmosLoop(_ *env, l map[string]float64) error {
	n := scaled(100_000, 100)
	spec, err := adl.Parse(benchSpec)
	if err != nil {
		return err
	}
	detected := 0
	eng := awareness.NewEngine(event.ConsumerFunc(func(event.Event) { detected++ }), awareness.Options{})
	if err := eng.Define(spec.Awareness...); err != nil {
		return err
	}
	if err := eng.Start(); err != nil {
		return err
	}
	defer eng.Stop()
	clock := vclock.NewSystem()
	refs := []event.ProcessRef{{SchemaID: "Bench", InstanceID: "p-1"}}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		eng.Consume(event.NewContext(clock.Next(), "bench", event.ContextChange{
			ContextID: "ctx-1", ContextName: "BenchCtx", Processes: refs,
			FieldName: "Tally", NewFieldValue: int64(i),
		}))
	}
	l["cedmos.detect_ns_per_event"] = per(t0, n, time.Nanosecond)
	if detected != n {
		return fmt.Errorf("cedmos loop: %d detections for %d events", detected, n)
	}
	return nil
}

func deliveryLoops(e *env, l map[string]float64) error {
	dir, err := e.mkdir("direct-delivery")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := delivery.NewStoreWith(dir, delivery.StoreOptions{})
	if err != nil {
		return err
	}
	defer store.Close()
	n := scaled(20_000, 50)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if _, err := store.Enqueue("d0", sampleNotification(int64(i))); err != nil {
			return err
		}
	}
	l["delivery.enqueue_us"] = per(t0, n, time.Microsecond)

	crew := make([]string, crewSize)
	for i := range crew {
		crew[i] = fmt.Sprintf("w%d", i)
	}
	fan := scaled(2_000, 50)
	t0 = time.Now()
	for i := 0; i < fan; i++ {
		if _, _, err := store.EnqueueFanout(crew, "", sampleNotification(int64(i))); err != nil {
			return err
		}
	}
	l["delivery.fanout16_us"] = per(t0, fan, time.Microsecond)

	// Ack all but the newest 16 of w0: Pending then scans the acked
	// history a long-lived queue carries (the store compacts only at open).
	t0 = time.Now()
	for id := int64(1); id <= int64(fan-16); id++ {
		if err := store.Ack("w0", id); err != nil {
			return err
		}
	}
	l["delivery.ack_us"] = per(t0, fan-16, time.Microsecond)
	reads := scaled(2_000, 20)
	t0 = time.Now()
	for i := 0; i < reads; i++ {
		ns, err := store.Pending("w0")
		if err != nil || len(ns) != 16 {
			return fmt.Errorf("delivery loop: %d pending, want 16 (%v)", len(ns), err)
		}
	}
	l["delivery.pending16_us"] = per(t0, reads, time.Microsecond)
	return nil
}

func streamLoop(e *env, l map[string]float64) error {
	dir, err := e.mkdir("direct-stream")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := delivery.NewStoreWith(dir, delivery.StoreOptions{})
	if err != nil {
		return err
	}
	defer store.Close()
	hub := cmistream.NewHub(store, cmistream.Options{})
	defer hub.Close()
	sess, err := hub.Subscribe("s0", 0)
	if err != nil {
		return err
	}
	// A new session owes a journal replay first; let it find the empty
	// queue and go live.
	warm, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	sess.Next(warm)
	cancel()
	fw := hub.NewFrameWriter(io.Discard)
	n := scaled(50_000, 100)
	batch := []delivery.Notification{sampleNotification(0)}
	t0 := time.Now()
	for i := 1; i <= n; i++ {
		batch[0].ID = int64(i)
		hub.Broadcast("s0", batch)
		ns, err := sess.Next(context.Background())
		if err != nil || len(ns) != 1 {
			return fmt.Errorf("stream loop: %d notifications (%v)", len(ns), err)
		}
		if err := fw.WriteEvents(ns); err != nil {
			return err
		}
	}
	l["stream.frame_ns_per_notif"] = per(t0, n, time.Nanosecond)
	return nil
}

// enactLoop times the engine with WAL fsync off, and the federation
// handler's read path into a recorder.
func enactLoop(e *env, l map[string]float64) error {
	dir, err := e.mkdir("direct-enact")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	sys, err := cmi.New(cmi.Config{Clock: vclock.NewSystem(), StateDir: dir})
	if err != nil {
		return err
	}
	defer sys.Close()
	if err := seedSystem(sys); err != nil {
		return err
	}
	var procs []string
	for i := 0; i < 2*instancesPerClient; i++ {
		pi, err := sys.StartProcess("Bench", "u0")
		if err != nil {
			return err
		}
		procs = append(procs, pi.ID())
	}
	co := sys.Coordination()
	cycles := scaled(2_000, 20)
	t0 := time.Now()
	for i := 0; i < cycles; i++ {
		info, err := co.Instantiate(procs[i%len(procs)], "Step", "u0")
		if err != nil {
			return err
		}
		if err := co.Start(info.ID, "u0"); err != nil {
			return err
		}
		if err := co.Complete(info.ID, "u0"); err != nil {
			return err
		}
	}
	l["enact.op_us_nosync"] = per(t0, 3*cycles, time.Microsecond)

	h := federation.NewServer(sys).Handler()
	reads := scaled(1_000, 20)
	t0 = time.Now()
	for i := 0; i < reads; i++ {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/api/worklist/u0", nil))
		if rr.Code != http.StatusOK {
			return fmt.Errorf("handler loop: HTTP %d", rr.Code)
		}
	}
	l["federation.handler_read_us"] = per(t0, reads, time.Microsecond)
	return nil
}

// spoolLoop times the store-and-forward spool through the forwarder:
// Forward is one spool add; the done record is timed at the FS seam.
// The remote holds the first push until every add is in, so no done
// record interleaves with the adds.
func spoolLoop(e *env, l map[string]float64) error {
	dir, err := e.mkdir("direct-spool")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	n := scaled(1_000, 20)
	release := make(chan struct{})
	var mu sync.Mutex
	pushed := 0
	all := make(chan struct{})
	remote := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(federation.PushResponse{})
		mu.Lock()
		pushed++
		if pushed == n {
			close(all)
		}
		mu.Unlock()
	}))
	defer remote.Close()
	tr := newTracer()
	fwd, err := federation.NewForwarder(federation.ForwarderConfig{
		Client:    federation.NewRemoteClient(remote.URL, nil),
		SpoolPath: filepath.Join(dir, "spool.journal"),
		FS:        tracedFS{cmifs.OS, tr},
	})
	if err != nil {
		return err
	}
	defer fwd.Close()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if err := fwd.Forward("u0", sampleNotification(int64(i))); err != nil {
			return err
		}
	}
	l["federation.spool_add_us"] = per(t0, n, time.Microsecond)
	addIO := tr.ioNanos()
	close(release)
	select {
	case <-all:
	case <-time.After(30 * time.Second):
		return fmt.Errorf("spool loop: only %d of %d pushes arrived", pushed, n)
	}
	for deadline := time.Now().Add(5 * time.Second); fwd.Depth() > 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if d := fwd.Depth(); d != 0 {
		return fmt.Errorf("spool loop: %d entries never marked done", d)
	}
	l["federation.spool_done_us"] = float64(tr.ioNanos()-addIO) / float64(n) / 1e3
	return nil
}

// imageLoops times recovery's two halves alone on fresh copies of the
// restart image: the enactment replay and the delivery preload (with
// its load-time compaction).
func imageLoops(e *env, image string, l map[string]float64) error {
	rounds := scaled(5, 1)
	var recoverMs, preloadMs []float64
	for i := 0; i < rounds; i++ {
		dir, err := e.mkdir("direct-image")
		if err != nil {
			return err
		}
		if err := copyDir(image, dir); err != nil {
			return err
		}
		store, err := delivery.NewStoreWith(dir, delivery.StoreOptions{})
		if err != nil {
			return err
		}
		t0 := time.Now()
		err = store.Preload()
		preloadMs = append(preloadMs, msSince(t0))
		store.Close()
		if err != nil {
			return err
		}

		spec, err := adl.Parse(benchSpec)
		if err != nil {
			return err
		}
		schemas := core.NewSchemaRegistry()
		if err := spec.Register(schemas); err != nil {
			return err
		}
		clock := vclock.NewSystem()
		eng := enact.NewStriped(clock, schemas, core.NewDirectory(), core.NewRegistry(clock), runtime.GOMAXPROCS(0))
		t0 = time.Now()
		stats, err := eng.Recover(filepath.Join(dir, "enact.snap"), filepath.Join(dir, "enact.wal"))
		recoverMs = append(recoverMs, msSince(t0))
		if err != nil {
			return err
		}
		if stats.Replayed != imageReplayedRecs {
			return fmt.Errorf("image loop: replayed %d records, want %d", stats.Replayed, imageReplayedRecs)
		}
		os.RemoveAll(dir)
	}
	l["enact.recover_ms"] = median(recoverMs)
	l["delivery.preload_ms"] = median(preloadMs)
	return nil
}
