package system

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"github.com/mcc-cmi/cmi/internal/awareness"
	"github.com/mcc-cmi/cmi/internal/vclock"
)

const soloSpec = `
process Solo {
    activity Work role org Worker
}
awareness Done on Solo {
    root = activity Work to (Completed)
    deliver org Worker
    describe "done"
}
`

func newTestSystem(t *testing.T) *System {
	t.Helper()
	s, err := New(Config{Clock: vclock.NewVirtual(), StateDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestLoadSpecAfterStartRejected(t *testing.T) {
	s := newTestSystem(t)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	before := s.Schemas().Names()
	_, err := s.LoadSpec(soloSpec)
	if !errors.Is(err, ErrStarted) {
		t.Fatalf("LoadSpec after Start = %v, want ErrStarted", err)
	}
	if got := s.Schemas().Names(); len(got) != len(before) {
		t.Fatalf("schemas changed by rejected load: %v", got)
	}
}

// TestLoadSpecRollbackOnDefineFailure forces the awareness definition
// step to fail after the spec's process schemas registered, and checks
// the registrations are rolled back rather than left behind.
func TestLoadSpecRollbackOnDefineFailure(t *testing.T) {
	s := newTestSystem(t)
	// Arm the awareness engine directly (bypassing System.Start, so the
	// facade still believes specs may load): Define now fails with
	// "cannot define while the engine runs".
	pre, err := s.LoadSpec(`
process Seed {
    activity Sow role org Worker
}
awareness Sown on Seed {
    root = activity Sow to (Completed)
    deliver org Worker
    describe "sown"
}
`)
	if err != nil || len(pre.Awareness) != 1 {
		t.Fatalf("seed spec: %v", err)
	}
	if err := s.Awareness().Start(); err != nil {
		t.Fatal(err)
	}
	before := s.Schemas().Names()
	if _, err := s.LoadSpec(soloSpec); err == nil {
		t.Fatal("load succeeded with a running awareness engine")
	}
	after := s.Schemas().Names()
	if strings.Join(after, ",") != strings.Join(before, ",") {
		t.Fatalf("partial registration left behind:\nbefore %v\nafter  %v", before, after)
	}
}

// TestLoadSpecRollbackOnRegisterConflict loads a spec whose second
// process conflicts with an existing schema name; the first process of
// the failing spec must not survive the failed load.
func TestLoadSpecRollbackOnRegisterConflict(t *testing.T) {
	s := newTestSystem(t)
	if _, err := s.LoadSpec(`
process Clash {
    activity A role org R
}
`); err != nil {
		t.Fatal(err)
	}
	before := s.Schemas().Names()
	_, err := s.LoadSpec(`
process Fresh {
    activity B role org R
}
process Clash {
    activity B role org R
}
`)
	if err == nil {
		t.Fatal("conflicting spec accepted")
	}
	after := s.Schemas().Names()
	if strings.Join(after, ",") != strings.Join(before, ",") {
		t.Fatalf("rollback incomplete:\nbefore %v\nafter  %v", before, after)
	}
}

// TestConcurrentLoadSpecStart races spec loading against Start (the
// federation postSpec race): under -race this must be clean, and a load
// that wins must leave a consistent system — its awareness schema armed
// by Start — while a load that loses must fail with ErrStarted and
// leave no schemas behind.
func TestConcurrentLoadSpecStart(t *testing.T) {
	for i := 0; i < 50; i++ {
		s, err := New(Config{Clock: vclock.NewVirtual(), StateDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		var loadErr, startErr error
		wg.Add(2)
		go func() {
			defer wg.Done()
			_, loadErr = s.LoadSpec(soloSpec)
		}()
		go func() {
			defer wg.Done()
			startErr = s.Start()
		}()
		wg.Wait()
		if startErr != nil {
			t.Fatalf("start: %v", startErr)
		}
		switch {
		case loadErr == nil:
			// Load won the race: Start must have armed the engine.
			if !s.Awareness().Running() {
				t.Fatal("spec loaded before Start but engine not running")
			}
		case errors.Is(loadErr, ErrStarted):
			if got := s.Schemas().Names(); len(got) != 0 {
				t.Fatalf("losing load left schemas: %v", got)
			}
		default:
			t.Fatalf("load: %v", loadErr)
		}
		s.Close()
	}
}

// TestDefineAwarenessAfterStartRejected mirrors the LoadSpec guard: a
// post-Start define must fail with ErrStarted and must not flip the
// has-schemas flag — on a system with no awareness schemas the engine
// never started, so a flipped flag would wedge Health at unhealthy.
func TestDefineAwarenessAfterStartRejected(t *testing.T) {
	s := newTestSystem(t)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	err := s.DefineAwareness(&awareness.Schema{Name: "Late"})
	if !errors.Is(err, ErrStarted) {
		t.Fatalf("DefineAwareness after Start = %v, want ErrStarted", err)
	}
	if h := s.Health(); !h.Healthy {
		t.Fatalf("health after rejected define = %+v, want healthy", h)
	}
}

func TestHealthLifecycle(t *testing.T) {
	s := newTestSystem(t)
	if h := s.Health(); h.Healthy || h.Started {
		t.Fatalf("health before start = %+v", h)
	}
	if _, err := s.LoadSpec(soloSpec); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	h := s.Health()
	if !h.Healthy || !h.Started || !h.EngineRunning || !h.StoreOpen {
		t.Fatalf("health after start = %+v", h)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if h := s.Health(); h.Healthy || h.StoreOpen || h.EngineRunning {
		t.Fatalf("health after close = %+v", h)
	}
}

// TestHealthNoAwareness: a system with no awareness schemas never starts
// the engine, which must not count against its health.
func TestHealthNoAwareness(t *testing.T) {
	s := newTestSystem(t)
	if _, err := s.LoadSpec(`
process Plain {
    activity Only role org R
}
`); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	h := s.Health()
	if !h.Healthy || h.EngineRunning {
		t.Fatalf("health without awareness = %+v", h)
	}
}

// TestSystemMetricsCoverLayers drives a small process end to end and
// checks the per-system registry exposes every layer's series.
func TestSystemMetricsCoverLayers(t *testing.T) {
	s, err := New(Config{Clock: vclock.NewVirtual(), StateDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.LoadSpec(soloSpec); err != nil {
		t.Fatal(err)
	}
	if err := s.AddHuman("w", "W"); err != nil {
		t.Fatal(err)
	}
	if err := s.AssignRole("Worker", "w"); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	pi, err := s.StartProcess("Solo", "w")
	if err != nil {
		t.Fatal(err)
	}
	wl := s.Worklist("w")
	if len(wl) != 1 {
		t.Fatalf("worklist = %v", wl)
	}
	if err := s.Coordination().Start(wl[0].ActivityID, "w"); err != nil {
		t.Fatal(err)
	}
	if err := s.Coordination().Complete(wl[0].ActivityID, "w"); err != nil {
		t.Fatal(err)
	}
	s.Quiesce()
	_ = pi

	var b strings.Builder
	if _, err := s.Metrics().WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, series := range []string{
		"cmi_cedmos_detect_seconds",
		"cmi_awareness_detections_total",
		"cmi_awareness_dropped_total",
		"cmi_awareness_node_consumed_total",
		"cmi_delivery_enqueued_total",
		"cmi_delivery_journal_append_seconds",
		"cmi_delivery_queue_depth",
		"cmi_delivery_notifications_total",
		"cmi_enact_transitions_total",
		"cmi_enact_processes",
	} {
		if !strings.Contains(out, series) {
			t.Fatalf("metrics missing %s:\n%s", series, out)
		}
	}
	// The completed activity must show in the transition counter and the
	// detection must have been delivered.
	if !strings.Contains(out, `cmi_enact_transitions_total{state="Completed"}`) {
		t.Fatalf("no Completed transitions:\n%s", out)
	}
	// Every event the engine consumed was timed on the in-line path.
	if strings.Contains(out, "cmi_cedmos_detect_seconds_count 0\n") {
		t.Fatalf("detection latency never observed:\n%s", out)
	}
	pending := s.MustViewer("w")
	if len(pending) != 1 || pending[0].Schema != "Done" {
		t.Fatalf("pending = %v", pending)
	}
}
