package system

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/mcc-cmi/cmi/internal/core"
	"github.com/mcc-cmi/cmi/internal/delivery"
	"github.com/mcc-cmi/cmi/internal/vclock"
)

// crashSpec is the workload model for the crash-injection harness: a
// sequence with a guard-gated repeatable audit, a context to mutate,
// and an awareness description so detections and deliveries run during
// the workload.
const crashSpec = `
contextschema CrashCtx {
    int Tally
    string Note
}
process Crash {
    context cc CrashCtx
    activity Step role org Crew
    activity Audit role org Crew
    activity Wrap role org Crew
    seq Step -> Wrap
    guard Step -> Audit when cc.Tally >= 3
}
awareness CrashDone on Crash {
    root = activity Wrap to (Completed)
    deliver org Crew
    describe "wrapped"
}
`

var crashCrew = []string{"c1", "c2"}

// newCrashSystem opens (or recovers) a system on the harness state dir.
// stripes is the enactment engine's stripe count: rounds alternate it so
// journals written under the striped engine are recovered by the
// single-lock one and vice versa — stripe count is a locking choice, not
// a journal format, so every combination must agree.
func newCrashSystem(t *testing.T, dir string, stripes int) *System {
	t.Helper()
	s, err := New(Config{Clock: vclock.NewVirtual(), StateDir: dir, SnapshotEvery: 100, EnactStripes: stripes})
	if err != nil {
		t.Fatalf("open %s: %v", dir, err)
	}
	if _, err := s.LoadSpec(crashSpec); err != nil {
		s.Close()
		t.Fatal(err)
	}
	for _, u := range crashCrew {
		if err := s.AddHuman(u, u); err != nil {
			s.Close()
			t.Fatal(err)
		}
		if err := s.AssignRole("Crew", u); err != nil {
			s.Close()
			t.Fatal(err)
		}
	}
	if err := s.Start(); err != nil {
		s.Close()
		t.Fatal(err)
	}
	return s
}

// TestCrashWorkloadChild is the harness child: it runs a randomized
// workload against CMI_CRASH_DIR until the parent SIGKILLs it at an
// arbitrary point. It is skipped unless spawned by TestCrashRecovery.
func TestCrashWorkloadChild(t *testing.T) {
	if os.Getenv("CMI_CRASH_CHILD") == "" {
		t.Skip("harness child; spawned by TestCrashRecovery")
	}
	dir := os.Getenv("CMI_CRASH_DIR")
	seed, _ := strconv.ParseInt(os.Getenv("CMI_CRASH_SEED"), 10, 64)
	stripes, _ := strconv.Atoi(os.Getenv("CMI_CRASH_STRIPES"))
	rng := rand.New(rand.NewSource(seed))
	s := newCrashSystem(t, dir, stripes)
	eng := s.Coordination()

	user := func() string { return crashCrew[rng.Intn(len(crashCrew))] }
	pick := func(st core.State) (string, bool) {
		ids := eng.Instances()
		rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		for _, id := range ids {
			acts := eng.ActivitiesOf(id)
			rng.Shuffle(len(acts), func(i, j int) { acts[i], acts[j] = acts[j], acts[i] })
			for _, ai := range acts {
				if ai.State == st {
					return ai.ID, true
				}
			}
		}
		return "", false
	}
	running := func() (string, bool) {
		for _, id := range eng.Instances() {
			if st, _ := eng.ProcessState(id); st == core.Running {
				return id, true
			}
		}
		return "", false
	}

	// The loop is unbounded on purpose: the parent kills the process.
	// Individual operations may legally fail (double transitions,
	// guards not met, …); failed operations burn ids without journal
	// records, which recovery must absorb.
	for i := 0; i < 1<<30; i++ {
		switch rng.Intn(10) {
		case 0, 1:
			_, _ = s.StartProcess("Crash", user())
		case 2, 3:
			if id, ok := pick(core.Ready); ok {
				_ = eng.Start(id, user())
			}
		case 4, 5:
			if id, ok := pick(core.Running); ok {
				u := user()
				if err := eng.Complete(id, u); err == nil {
					// The keyed delivery the invariants check: the
					// notification may exist only if the completion is
					// recoverable, and lands exactly once.
					_, _, _ = s.Store().EnqueueKeyed(u, "done:"+id,
						delivery.Notification{Description: "done:" + id})
				}
			}
		case 6:
			if id, ok := running(); ok {
				_ = s.SetContextField(id, "cc", "Tally", rng.Intn(6))
			}
		case 7:
			if id, ok := running(); ok {
				av := core.ActivityVariable{
					Name:   fmt.Sprintf("Dyn%d", i),
					Schema: &core.BasicActivitySchema{Name: "DynWork", PerformerRole: core.OrgRole("Crew")},
				}
				_, _ = eng.AddActivity(id, av, rng.Intn(2) == 0, user())
			}
		case 8:
			if id, ok := running(); ok && rng.Intn(4) == 0 {
				_ = eng.TerminateProcess(id, user())
			}
		case 9:
			if id, ok := pick(core.Running); ok && rng.Intn(2) == 0 {
				u := user()
				if eng.Suspend(id, u) == nil {
					_ = eng.Resume(id, u)
				}
			}
		}
	}
}

// crashDump renders recovered state through the public API only, for
// determinism comparison across independent recoveries.
func crashDump(s *System) string {
	eng := s.Coordination()
	var b strings.Builder
	ids := eng.Instances()
	sort.Strings(ids)
	for _, id := range ids {
		pi, _ := eng.Instance(id)
		st, _ := eng.ProcessState(id)
		fmt.Fprintf(&b, "proc %s %s %s\n", id, pi.Schema().Name, st)
		acts := eng.ActivitiesOf(id)
		sort.Slice(acts, func(i, j int) bool { return acts[i].ID < acts[j].ID })
		for _, ai := range acts {
			fmt.Fprintf(&b, "  act %s %s %s %q\n", ai.ID, ai.Var, ai.State, ai.Assignee)
		}
		extActs, extDeps := eng.DynamicExtensions(id)
		for _, av := range extActs {
			fmt.Fprintf(&b, "  dynact %s %s\n", av.Name, av.Schema.SchemaName())
		}
		for _, d := range extDeps {
			fmt.Fprintf(&b, "  dyndep %d %v -> %s\n", int(d.Type), d.Sources, d.Target)
		}
		if ctxID, ok := eng.ContextID(id, "cc"); ok {
			tally, _ := s.Contexts().Field(ctxID, "Tally")
			fmt.Fprintf(&b, "  ctx %s Tally=%v\n", ctxID, tally)
		}
	}
	// The worklists are served from the open-work index, which recovery
	// rebuilds rather than restores: two recoveries must rebuild the same.
	for _, u := range crashCrew {
		for _, it := range s.Worklist(u) {
			fmt.Fprintf(&b, "work %s %s %s %s\n", u, it.ActivityID, it.Var, it.State)
		}
	}
	return b.String()
}

// verifyCrashInvariants recovers the state directory and checks the
// harness invariants, returning the dump for determinism comparison.
func verifyCrashInvariants(t *testing.T, dir string, round, stripes int) string {
	t.Helper()
	s := newCrashSystem(t, dir, stripes)
	defer s.Close()
	rec := s.Recovery()
	t.Logf("round %d: recovered snapshot=%v replayed=%d skipped=%d torn=%v lastSeq=%d in %v",
		round, rec.SnapshotLoaded, rec.Replayed, rec.Skipped, rec.TornTail, rec.LastSeq, rec.Elapsed)
	if rec.Failed != 0 {
		t.Errorf("round %d: %d journal records failed to replay", round, rec.Failed)
	}
	eng := s.Coordination()
	// Invariant 1: every recovered state is legal in its state schema.
	for _, id := range eng.Instances() {
		pi, _ := eng.Instance(id)
		st, _ := eng.ProcessState(id)
		if !pi.Schema().States().Has(st) {
			t.Errorf("round %d: process %s recovered in unknown state %v", round, id, st)
		}
		for _, ai := range eng.ActivitiesOf(id) {
			if ai.State == core.Uninitialized {
				t.Errorf("round %d: activity %s recovered Uninitialized", round, ai.ID)
			}
		}
	}
	// Invariant 2: the journals agree. A keyed "done" notification can
	// exist only if the completion it followed was journaled first —
	// so the activity must be recovered as Completed. And the key must
	// dedup across the restart: re-enqueueing is a no-op.
	for _, u := range crashCrew {
		pend, err := s.Store().Pending(u)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range pend {
			if !strings.HasPrefix(n.Description, "done:") {
				continue // awareness deliveries
			}
			actID := strings.TrimPrefix(n.Description, "done:")
			ai, ok := eng.Activity(actID)
			if !ok {
				t.Errorf("round %d: notification for unrecovered activity %s", round, actID)
				continue
			}
			if ai.State != core.Completed {
				t.Errorf("round %d: notified activity %s recovered %v, want Completed", round, actID, ai.State)
			}
			if _, dup, err := s.Store().EnqueueKeyed(u, n.Description, n); err != nil || !dup {
				t.Errorf("round %d: keyed notification %s not deduplicated (dup=%v, err=%v)", round, n.Description, dup, err)
			}
		}
	}
	return crashDump(s)
}

// TestCrashRecovery SIGKILLs a child running a randomized workload at
// an arbitrary journal position, then recovers and checks invariants:
// legal states only, journal agreement, keyed exactly-once delivery,
// and recovery determinism. Rounds compound on one state directory, so
// later rounds recover through snapshots plus prior recoveries.
func TestCrashRecovery(t *testing.T) {
	if os.Getenv("CMI_CRASH_CHILD") != "" {
		t.Skip("harness child run")
	}
	if testing.Short() {
		t.Skip("crash harness skipped in -short")
	}
	dir := t.TempDir()
	rounds := 3
	if v := os.Getenv("CMI_CRASH_ROUNDS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			rounds = n
		}
	}
	seed := time.Now().UnixNano()
	if v := os.Getenv("CMI_CRASH_SEED"); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			seed = n
		}
	}
	t.Logf("crash harness seed %d (set CMI_CRASH_SEED to reproduce)", seed)
	rng := rand.New(rand.NewSource(seed))
	walPath := filepath.Join(dir, "enact.wal")
	walSize := func() int64 {
		fi, err := os.Stat(walPath)
		if err != nil {
			return 0
		}
		return fi.Size()
	}

	for round := 0; round < rounds; round++ {
		// Alternate the stripe count: even rounds run (and crash) the
		// 4-striped engine, odd rounds the single-lock one, over the same
		// compounding state directory.
		stripes := 4
		if round%2 == 1 {
			stripes = 1
		}
		cmd := exec.Command(os.Args[0], "-test.run=^TestCrashWorkloadChild$", "-test.timeout=5m")
		cmd.Env = append(os.Environ(),
			"CMI_CRASH_CHILD=1",
			"CMI_CRASH_DIR="+dir,
			fmt.Sprintf("CMI_CRASH_STRIPES=%d", stripes),
			fmt.Sprintf("CMI_CRASH_SEED=%d", seed+int64(round)))
		var out bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, &out
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		exited := make(chan error, 1)
		go func() { exited <- cmd.Wait() }()

		// Wait until the child demonstrably journals (compaction keeps
		// truncating the file, so absolute size is no progress measure),
		// then kill after a randomized delay — a crash point
		// uncorrelated with record boundaries.
		base := walSize()
		deadline := time.Now().Add(60 * time.Second)
		for walSize() == base {
			select {
			case err := <-exited:
				t.Fatalf("round %d: child exited before kill: %v\n%s", round, err, out.String())
			default:
			}
			if time.Now().After(deadline) {
				_ = cmd.Process.Kill()
				<-exited
				t.Fatalf("round %d: child never journaled\n%s", round, out.String())
			}
			time.Sleep(time.Millisecond)
		}
		time.Sleep(time.Duration(rng.Intn(400)) * time.Millisecond)
		_ = cmd.Process.Kill()
		<-exited

		d1 := verifyCrashInvariants(t, dir, round, stripes)
		// Invariant 3: recovery is deterministic — a second independent
		// recovery of the same directory yields identical state. The
		// second recovery runs under the opposite stripe count, so the
		// parallel family-lane replay and the sequential replay must
		// reconstruct byte-identical state from the same journal.
		s2 := newCrashSystem(t, dir, 5-stripes)
		d2 := crashDump(s2)
		if d1 != d2 {
			s2.Close()
			t.Fatalf("round %d: recovery not deterministic:\n--- first ---\n%s--- second ---\n%s", round, d1, d2)
		}
		// Invariant 4: the recovered system still works end to end.
		pi, err := s2.StartProcess("Crash", "c1")
		if err != nil {
			s2.Close()
			t.Fatalf("round %d: post-recovery StartProcess: %v", round, err)
		}
		for _, ai := range s2.Coordination().ActivitiesOf(pi.ID()) {
			if ai.Var == "Step" {
				if err := s2.Coordination().Start(ai.ID, "c1"); err != nil {
					s2.Close()
					t.Fatal(err)
				}
				if err := s2.Coordination().Complete(ai.ID, "c1"); err != nil {
					s2.Close()
					t.Fatal(err)
				}
			}
		}
		if err := s2.Close(); err != nil {
			t.Fatalf("round %d: close after post-recovery work: %v", round, err)
		}
	}
}
