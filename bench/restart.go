package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	cmi "github.com/mcc-cmi/cmi"
	"github.com/mcc-cmi/cmi/internal/vclock"
)

// buildImage builds the restart workload's crash image through the
// library — the seeded plan of process starts, Wide writes, one
// snapshot and acks — and returns a directory holding a copy of the
// state taken live after Quiesce: the system is never Closed before the
// copy, so what cmid later opens is what a SIGKILL would have left.
func buildImage(e *env, seed int64) (string, error) {
	live, err := e.mkdir("image-live")
	if err != nil {
		return "", err
	}
	defer os.RemoveAll(live)
	sys, err := cmi.New(cmi.Config{
		Clock:         vclock.NewSystem(),
		StateDir:      live,
		SnapshotEvery: -1, // the plan says where the one snapshot goes
	})
	if err != nil {
		return "", err
	}
	defer sys.Close()
	if err := seedSystem(sys); err != nil {
		return "", err
	}
	var procs []string
	for _, o := range imagePlan(seed) {
		switch o.Op {
		case opStartProcess:
			pi, err := sys.StartProcess("Bench", "u0")
			if err != nil {
				return "", err
			}
			procs = append(procs, pi.ID())
		case opPutWide:
			if err := sys.SetContextField(procs[instIndex(o.Target)], "bc", "Wide", o.Value); err != nil {
				return "", err
			}
		case opSnapshot:
			if err := sys.Coordination().Compact(); err != nil {
				return "", err
			}
		case opAck:
			if err := sys.Viewer(o.Target).Ack(o.Value); err != nil {
				return "", fmt.Errorf("ack %s/%d: %w", o.Target, o.Value, err)
			}
		}
	}
	sys.Quiesce()
	image, err := e.mkdir("image")
	if err != nil {
		return "", err
	}
	return image, copyDir(live, image)
}

// seedSystem loads the bench spec and directory into an un-started
// system and starts it: what setUp does over HTTP, through the library.
func seedSystem(sys *cmi.System) error {
	if _, err := sys.LoadSpec(benchSpec); err != nil {
		return err
	}
	if err := sys.AddHuman("u0", "u0"); err != nil {
		return err
	}
	if err := sys.AssignRole("Solo", "u0"); err != nil {
		return err
	}
	for i := 0; i < crewSize; i++ {
		w := fmt.Sprintf("w%d", i)
		if err := sys.AddHuman(w, w); err != nil {
			return err
		}
		if err := sys.AssignRole("Crew16", w); err != nil {
			return err
		}
	}
	return sys.Start()
}

func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		return copyFile(path, target, 0o644)
	})
}

// A boot is one timed restart on a fresh copy of the image.
type boot struct {
	addrMs    float64 // exec -> addr-file
	healthyMs float64 // exec -> first healthz 200
	queueMs   float64 // exec -> w0's pending queue read back
	readMs    float64 // one queue GET (median of three)
	recoverMs float64 // the child's own recovery pass
	syncs     float64 // fsyncs (file + directory) the boot issued
	cpuMs     float64
	rssMB     float64
}

// runRestart measures the operator's wait after a crash: for the length
// of the window, copy the image (untimed), exec cmid on it, poll until
// the first healthz 200, read w0's queue, verify, kill.
func runRestart(ctx context.Context, e *env, p params, traced bool) (*result, error) {
	res := newResult(p.workload)
	ctl := newConn(e)
	var setupS []float64
	var image string
	for k := 0; k < p.setups; k++ {
		if image != "" {
			os.RemoveAll(image)
		}
		t0 := time.Now()
		var err error
		if image, err = buildImage(e, p.seed); err != nil {
			return nil, fmt.Errorf("build image: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	res.e2e["setup_s"] = median(setupS)
	res.counts["setup_s"] = len(setupS)

	rec := newRecorder(time.Now())
	steal0, total0 := cpuJiffies()
	// One warm-up boot pages the binary and the image in; it is not measured.
	if _, err := bootOnce(ctx, e, ctl, rec, image); err != nil {
		return nil, err
	}
	var boots []boot
	for deadline := time.Now().Add(p.window); len(boots) == 0 || time.Now().Before(deadline); {
		b, err := bootOnce(ctx, e, ctl, rec, image)
		if err != nil {
			return nil, err
		}
		boots = append(boots, b)
	}
	col := func(f func(boot) float64) []float64 {
		out := make([]float64, len(boots))
		for i, b := range boots {
			out[i] = f(b)
		}
		return out
	}
	healthy := col(func(b boot) float64 { return b.healthyMs })
	res.attempted, res.failed, res.firstErr = rec.attempted, rec.failed, rec.firstErr
	res.e2e["ops_per_s"] = 1000 / mean(healthy) // boots per second of boot time
	res.counts["ops_per_s"] = len(boots)
	latency(res, "op", healthy)
	latency(res, "notify", col(func(b boot) float64 { return b.queueMs }))
	latency(res, "read", col(func(b boot) float64 { return b.readMs }))
	l := res.layer
	steal1, total1 := cpuJiffies()
	l["system.steal_ratio"] = ratio(steal1-steal0, total1-total0)
	l["system.boot_ms"] = median(col(func(b boot) float64 { return b.addrMs }))
	l["system.recover_ms"] = median(col(func(b boot) float64 { return b.recoverMs }))
	l["fs.syncs_per_op"] = mean(col(func(b boot) float64 { return b.syncs }))
	l["system.cpu_ms_per_op"] = mean(col(func(b boot) float64 { return b.cpuMs }))
	l["system.rss_peak_mb"] = median(col(func(b boot) float64 { return b.rssMB }))
	l["client.samples"] = float64(len(boots))
	l["client.op_p99_ms"] = percentile(sortedCopy(healthy), 0.99)
	l["client.stall_max_ms"] = percentile(sortedCopy(healthy), 1)
	l["client.fail_ratio"] = ratio(float64(res.failed), float64(res.attempted))
	l["delivery.history_per_queue_end"] = imagePendingPerQ // what load-time compaction leaves
	if traced {
		if err := imageLoops(e, image, l); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// bootOnce runs one restart and checks what came back against the
// image's known contents.
func bootOnce(ctx context.Context, e *env, ctl *conn, rec *recorder, image string) (boot, error) {
	var b boot
	dir, err := e.mkdir("boot")
	if err != nil {
		return b, err
	}
	defer os.RemoveAll(dir)
	if err := copyDir(image, dir); err != nil {
		return b, err
	}
	rec.attempted++
	t0 := time.Now()
	c, err := e.start(ctx, "boot", dir, "-start")
	if err != nil {
		return b, err
	}
	defer c.kill()
	b.addrMs = c.bootMs
	at, err := c.waitHealthy(ctx, ctl.hc)
	if err != nil {
		return b, err
	}
	b.healthyMs = float64(at.Sub(t0)) / 1e6
	// w0 reads its queue back three times; the first read ends the
	// participant's wait, the median of the three is the read latency.
	var readMs []float64
	for i := 0; i < 3; i++ {
		var pending []json.RawMessage
		r0 := time.Now()
		gerr := ctl.getJSON(ctx, c.base()+"/api/notifications/w0", &pending)
		readMs = append(readMs, msSince(r0))
		if i == 0 {
			b.queueMs = msSince(t0)
		}
		rec.check(gerr == nil && len(pending) == imagePendingPerQ, "w0 has %d pending after restart, want %d (%v)", len(pending), imagePendingPerQ, gerr)
	}
	b.readMs = median(readMs)

	var info struct {
		SnapshotLoaded bool    `json:"snapshotLoaded"`
		Replayed       int     `json:"replayed"`
		Failed         int     `json:"failed"`
		ElapsedMs      float64 `json:"elapsedMs"`
	}
	gerr := ctl.getJSON(ctx, c.base()+"/api/system/recovery", &info)
	rec.check(gerr == nil && info.SnapshotLoaded && info.Replayed == imageReplayedRecs && info.Failed == 0,
		"recovery replayed %d records (snapshot %v, %d failed), want %d (%v)", info.Replayed, info.SnapshotLoaded, info.Failed, imageReplayedRecs, gerr)
	b.recoverMs = info.ElapsedMs
	s, err := scrapeChild(ctx, ctl, c.base())
	if err != nil {
		return b, err
	}
	rec.check(s.sum("cmi_enact_processes") == imageInstances, "%v process instances after restart, want %d", s.sum("cmi_enact_processes"), imageInstances)
	b.syncs = s.sum("cmi_fs_syncs_total") + s.sum("cmi_fs_dir_syncs_total")
	cpu, rss, _ := procUsage(c.pid)
	b.cpuMs, b.rssMB = float64(cpu)/1e6, rss
	return b, nil
}
