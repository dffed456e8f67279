package enact

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/mcc-cmi/cmi/internal/core"
	"github.com/mcc-cmi/cmi/internal/vclock"
)

// walFixture is a fixture whose engine journals to a temp directory.
type walFixture struct {
	*fixture
	walPath  string
	snapPath string
}

func newWALFixture(t *testing.T, snapEvery int) *walFixture {
	t.Helper()
	f := newFixture(t)
	d := t.TempDir()
	wf := &walFixture{
		fixture:  f,
		walPath:  filepath.Join(d, "enact.wal"),
		snapPath: filepath.Join(d, "enact.snap"),
	}
	w, err := OpenWAL(wf.walPath, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	f.eng.AttachWAL(w, wf.snapPath, snapEvery)
	t.Cleanup(func() { _ = f.eng.CloseWAL() })
	return wf
}

// reopen seals the journal and rebuilds a fresh engine from disk. The
// recovered fixture shares the schema registry — programmatic schemas
// must be registered before reopening — but gets an empty directory on
// purpose: performer checks are skipped during replay, so recovery must
// succeed even though no participant holds any role.
func (wf *walFixture) reopen(t *testing.T) (*fixture, RecoveryStats) {
	t.Helper()
	return wf.reopenStriped(t, 1)
}

// reopenStriped is reopen into an engine with the given stripe count;
// above one, replay takes the parallel family lanes.
func (wf *walFixture) reopenStriped(t *testing.T, stripes int) (*fixture, RecoveryStats) {
	t.Helper()
	if err := wf.eng.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	g := &fixture{
		clk:     vclock.NewVirtual(),
		schemas: wf.schemas,
		dir:     core.NewDirectory(),
	}
	g.contexts = core.NewRegistry(g.clk)
	g.eng = NewStriped(g.clk, g.schemas, g.dir, g.contexts, stripes)
	stats, err := g.eng.Recover(wf.snapPath, wf.walPath)
	if err != nil {
		t.Fatal(err)
	}
	return g, stats
}

// dump renders the engine's complete observable state as a stable
// string, so two engines can be compared for exact equivalence.
func dump(e *Engine) string {
	h := e.lockAll()
	defer h.unlock()
	e.idx.RLock()
	defer e.idx.RUnlock()
	var b strings.Builder
	ids := make([]string, 0, len(e.procs))
	for id := range e.procs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		pi := e.procs[id]
		parent := ""
		if pi.parentProc != nil {
			parent = pi.parentProc.id + "/" + pi.parentVar
		}
		fmt.Fprintf(&b, "proc %s schema=%s state=%s parent=%s init=%s\n",
			id, pi.schema.Name, pi.state, parent, pi.initiator)
		vars := make([]string, 0, len(pi.ctxIDs))
		for v := range pi.ctxIDs {
			vars = append(vars, v)
		}
		sort.Strings(vars)
		for _, v := range vars {
			fmt.Fprintf(&b, "  ctx %s=%s\n", v, pi.ctxIDs[v])
		}
		owned := append([]string(nil), pi.ownedCtxs...)
		sort.Strings(owned)
		cancelled := make([]string, 0, len(pi.cancelled))
		for v := range pi.cancelled {
			cancelled = append(cancelled, v)
		}
		sort.Strings(cancelled)
		fmt.Fprintf(&b, "  owned=%v cancelled=%v\n", owned, cancelled)
		for _, av := range pi.extraActs {
			fmt.Fprintf(&b, "  extraAct %s schema=%s\n", av.Name, av.Schema.SchemaName())
		}
		for _, d := range pi.extraDeps {
			fmt.Fprintf(&b, "  extraDep %d %v -> %s\n", int(d.Type), d.Sources, d.Target)
		}
		avars := make([]string, 0, len(pi.acts))
		for v := range pi.acts {
			avars = append(avars, v)
		}
		sort.Strings(avars)
		for _, v := range avars {
			for _, ai := range pi.acts[v] {
				child := ""
				if ai.child != nil {
					child = ai.child.id
				}
				fmt.Fprintf(&b, "  act %s var=%s schema=%s state=%s assignee=%s child=%s\n",
					ai.id, ai.varName, ai.schema.SchemaName(), ai.state, ai.assignee, child)
			}
		}
	}
	fmt.Fprintf(&b, "nextProc=%d nextAct=%d\n", e.nextProc.Load(), e.nextAct.Load())
	return b.String()
}

// mustMatch asserts that the recovered fixture's engine and context
// registry are byte-for-byte equivalent to the original's.
func mustMatch(t *testing.T, orig, rec *fixture) {
	t.Helper()
	if d1, d2 := dump(orig.eng), dump(rec.eng); d1 != d2 {
		t.Fatalf("engine state diverged after recovery:\n--- live ---\n%s--- recovered ---\n%s", d1, d2)
	}
	e1, err := orig.contexts.Export()
	if err != nil {
		t.Fatal(err)
	}
	e2, err := rec.contexts.Export()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(e1, e2) {
		t.Fatalf("context registry diverged after recovery:\n--- live ---\n%+v\n--- recovered ---\n%+v", e1, e2)
	}
}

// workload drives a representative mix of journaled operations,
// including deliberate failures (which burn ids without producing a
// journal record — the counter-forcing fields must absorb them).
func workload(t *testing.T, f *fixture) {
	t.Helper()
	f.register(t, simpleProcess())
	f.register(t, infoRequestModel())

	// Process 1: full TaskForce run with context writes and dynamics.
	p1, err := f.eng.StartProcess("TaskForce", StartOptions{Initiator: "dr.reed"})
	if err != nil {
		t.Fatal(err)
	}
	ctx1, _ := f.eng.ContextID(p1.ID(), "tfc")
	if err := f.contexts.SetField(ctx1, "Severity", 4); err != nil {
		t.Fatal(err)
	}
	if err := f.contexts.SetField(ctx1, "TaskForceDeadline", time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)); err != nil {
		t.Fatal(err)
	}
	if err := f.contexts.SetField(ctx1, "TaskForceMembers", core.NewRoleValue("dr.reed", "dr.okoye")); err != nil {
		t.Fatal(err)
	}
	f.run(t, p1.ID(), "Plan", "dr.reed")
	iv := f.findActivity(t, p1.ID(), "Interview")
	if err := f.eng.Assign(iv.ID, "dr.okoye"); err != nil {
		t.Fatal(err)
	}
	f.mustStart(t, iv.ID, "dr.okoye")
	if err := f.eng.Suspend(iv.ID, "dr.okoye"); err != nil {
		t.Fatal(err)
	}
	if err := f.eng.Resume(iv.ID, "dr.okoye"); err != nil {
		t.Fatal(err)
	}
	// A failed transition: completing a Ready (unstarted) activity.
	lab := f.findActivity(t, p1.ID(), "LabTest")
	if err := f.eng.Complete(lab.ID, "dr.reed"); err == nil {
		t.Fatal("completing an unstarted activity accepted")
	}
	// LabTest is repeatable — instantiate a second run.
	if _, err := f.eng.Instantiate(p1.ID(), "LabTest", "dr.reed"); err != nil {
		t.Fatal(err)
	}
	// Dynamic extension: an extra activity enabled behind a guard.
	if _, err := f.eng.AddActivity(p1.ID(),
		core.ActivityVariable{Name: "Escalate", Schema: basic("EscalateCrisis", epi())},
		false, "dr.reed"); err != nil {
		t.Fatal(err)
	}
	if err := f.eng.AddDependency(p1.ID(), core.Dependency{
		Type: core.DepGuard, Sources: []string{"Interview"}, Target: "Escalate",
		Guard: &core.Guard{ContextVar: "tfc", Field: "Severity", Op: ">=", Value: 3},
	}, "dr.reed"); err != nil {
		t.Fatal(err)
	}
	f.mustComplete(t, iv.ID, "dr.okoye") // guard fires: Severity 4 >= 3
	if esc := f.findActivity(t, p1.ID(), "Escalate"); esc.State != core.Ready {
		t.Fatalf("guard did not enable Escalate: %v", esc.State)
	}
	// A failed dynamic change: duplicate variable name.
	if _, err := f.eng.AddActivity(p1.ID(),
		core.ActivityVariable{Name: "Escalate", Schema: basic("EscalateCrisis", epi())},
		true, "dr.reed"); err == nil {
		t.Fatal("duplicate dynamic activity accepted")
	}

	// Process 2: subprocess invocation, left mid-flight.
	p2, err := f.eng.StartProcess("TaskForceP", StartOptions{Initiator: "dr.okoye"})
	if err != nil {
		t.Fatal(err)
	}
	f.run(t, p2.ID(), "Organize", "dr.okoye")
	req := f.findActivity(t, p2.ID(), "RequestInfo")
	f.mustStart(t, req.ID, "dr.okoye")
	child, ok := f.eng.Instance(req.ID)
	if !ok {
		t.Fatal("child process missing")
	}
	ircID, _ := f.eng.ContextID(child.ID(), "irc")
	if err := f.contexts.SetField(ircID, "Requestor", core.NewRoleValue("intern")); err != nil {
		t.Fatal(err)
	}
	f.run(t, child.ID(), "Gather", "dr.okoye")

	// Process 3: started and terminated — owned context retired.
	p3, err := f.eng.StartProcess("TaskForce", StartOptions{Initiator: "intern"})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.eng.TerminateProcess(p3.ID(), "intern"); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverEmptyDir(t *testing.T) {
	f := newFixture(t)
	d := t.TempDir()
	stats, err := f.eng.Recover(filepath.Join(d, "enact.snap"), filepath.Join(d, "enact.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if stats.SnapshotLoaded || stats.Replayed != 0 || stats.LastSeq != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if len(f.eng.Instances()) != 0 {
		t.Fatal("recovered instances from nothing")
	}
}

func TestRecoverRequiresFreshEngine(t *testing.T) {
	f := newFixture(t)
	f.startSimple(t)
	if _, err := f.eng.Recover("nope.snap", "nope.wal"); err == nil {
		t.Fatal("Recover on a used engine accepted")
	}
}

func TestWALRoundTrip(t *testing.T) {
	wf := newWALFixture(t, -1)
	workload(t, wf.fixture)
	rec, stats := wf.reopen(t)
	if stats.SnapshotLoaded {
		t.Fatal("no snapshot was written, but one loaded")
	}
	if stats.Replayed == 0 || stats.Failed != 0 || stats.TornTail {
		t.Fatalf("stats = %+v", stats)
	}
	mustMatch(t, wf.fixture, rec)
}

func TestRecoverIsDeterministic(t *testing.T) {
	wf := newWALFixture(t, -1)
	workload(t, wf.fixture)
	rec1, _ := wf.reopen(t)
	rec2, _ := wf.reopen(t)
	mustMatch(t, rec1, rec2)
}

// TestRecoveredEngineContinues verifies a recovered engine is fully
// operational: ids keep incrementing from the journal high-water mark
// and further operations journal correctly in turn.
func TestRecoveredEngineContinues(t *testing.T) {
	wf := newWALFixture(t, -1)
	workload(t, wf.fixture)
	rec, stats := wf.reopen(t)

	w, err := OpenWAL(wf.walPath, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	w.SetSeq(stats.LastSeq)
	rec.eng.AttachWAL(w, wf.snapPath, -1)

	// Finish process 1: the guard-gated Escalate plus remaining work.
	var p1 string
	for _, id := range rec.eng.Instances() {
		if pi, _ := rec.eng.Instance(id); pi.Schema().Name == "TaskForce" {
			if st, _ := rec.eng.ProcessState(id); st == core.Running {
				p1 = id
			}
		}
	}
	if p1 == "" {
		t.Fatal("running TaskForce instance not recovered")
	}
	esc := rec.findActivity(t, p1, "Escalate")
	if esc.State != core.Ready {
		t.Fatalf("Escalate = %v", esc.State)
	}
	// The recovered fixture's directory is empty; add the performer so
	// post-recovery checks pass (replay-only exemption must not leak).
	if err := rec.dir.AddParticipant(core.Participant{ID: "dr.reed", Name: "Dr Reed", Kind: core.Human}); err != nil {
		t.Fatal(err)
	}
	if err := rec.dir.AssignRole("Epidemiologist", "dr.reed"); err != nil {
		t.Fatal(err)
	}
	rec.mustStart(t, esc.ID, "dr.reed")
	rec.mustComplete(t, esc.ID, "dr.reed")
	if err := rec.eng.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	// The post-recovery tail replays too.
	g := &fixture{clk: vclock.NewVirtual(), schemas: wf.schemas, dir: core.NewDirectory()}
	g.contexts = core.NewRegistry(g.clk)
	g.eng = New(g.clk, g.schemas, g.dir, g.contexts)
	if _, err := g.eng.Recover(wf.snapPath, wf.walPath); err != nil {
		t.Fatal(err)
	}
	mustMatch(t, rec, g)
}

func TestCompactRoundTrip(t *testing.T) {
	wf := newWALFixture(t, -1)
	workload(t, wf.fixture)
	if err := wf.eng.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(wf.snapPath); err != nil {
		t.Fatalf("snapshot not written: %v", err)
	}
	data, err := os.ReadFile(wf.walPath)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(splitLines(data)); n != 0 {
		t.Fatalf("journal not truncated after compaction: %d records remain", n)
	}

	// More work after compaction lands in the fresh journal tail.
	p4, err := wf.eng.StartProcess("TaskForce", StartOptions{Initiator: "dr.reed"})
	if err != nil {
		t.Fatal(err)
	}
	ctx4, _ := wf.eng.ContextID(p4.ID(), "tfc")
	if err := wf.contexts.SetField(ctx4, "Severity", 9); err != nil {
		t.Fatal(err)
	}

	rec, stats := wf.reopen(t)
	if !stats.SnapshotLoaded {
		t.Fatal("snapshot not loaded")
	}
	if stats.Replayed == 0 {
		t.Fatal("post-compaction tail not replayed")
	}
	mustMatch(t, wf.fixture, rec)
}

// TestCompactRetiresClosedContexts: contexts owned by completed or
// terminated processes must not resurrect as live through a snapshot.
func TestCompactRetiresClosedContexts(t *testing.T) {
	wf := newWALFixture(t, -1)
	workload(t, wf.fixture)
	live := wf.contexts.Live()
	if err := wf.eng.Compact(); err != nil {
		t.Fatal(err)
	}
	rec, _ := wf.reopen(t)
	if got := rec.contexts.Live(); got != live {
		t.Fatalf("live contexts after snapshot recovery = %d, want %d", got, live)
	}
}

func TestAutoCompaction(t *testing.T) {
	wf := newWALFixture(t, 5) // compact every ~5 records
	workload(t, wf.fixture)
	// Compaction is asynchronous; Barrier then poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := os.Stat(wf.snapPath); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("automatic compaction never produced a snapshot")
		}
		time.Sleep(5 * time.Millisecond)
	}
	rec, stats := wf.reopen(t)
	if !stats.SnapshotLoaded {
		t.Fatal("snapshot not loaded")
	}
	mustMatch(t, wf.fixture, rec)
}

// TestBacklogCompaction: a replayed journal tail counts toward the
// snapshot threshold. Without SetBacklog, the since-snapshot counter
// restarted from zero on every boot, so a process that crash-looped
// with fewer than snapEvery fresh records per incarnation never
// compacted and its journal grew without bound.
func TestBacklogCompaction(t *testing.T) {
	wf := newWALFixture(t, -1) // no compaction while generating history
	workload(t, wf.fixture)
	rec, stats := wf.reopen(t)
	if stats.SnapshotLoaded || stats.Replayed == 0 {
		t.Fatalf("fixture expectation violated: want no snapshot and some replay, got %+v", stats)
	}

	// Reattach the way system startup does: seed the backlog, then
	// attach with a threshold the backlog already exceeds. No new
	// records are written — the attach alone must compact.
	w, err := OpenWAL(wf.walPath, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	w.SetSeq(stats.LastSeq)
	w.SetBacklog(int64(stats.Replayed + stats.Skipped + stats.Failed))
	rec.eng.AttachWAL(w, wf.snapPath, 5)
	defer rec.eng.CloseWAL()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := os.Stat(wf.snapPath); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("replayed backlog never triggered a compaction")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The compacted state still recovers exactly.
	if err := rec.eng.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	g := &fixture{clk: vclock.NewVirtual(), schemas: wf.schemas, dir: core.NewDirectory()}
	g.contexts = core.NewRegistry(g.clk)
	g.eng = New(g.clk, g.schemas, g.dir, g.contexts)
	stats2, err := g.eng.Recover(wf.snapPath, wf.walPath)
	if err != nil {
		t.Fatal(err)
	}
	if !stats2.SnapshotLoaded {
		t.Fatal("snapshot not loaded after backlog compaction")
	}
	mustMatch(t, rec, g)
}

func TestTornTailDiscarded(t *testing.T) {
	wf := newWALFixture(t, -1)
	workload(t, wf.fixture)
	if err := wf.eng.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	// Append the torn prefix of a record, as a crash mid-write would.
	fh, err := os.OpenFile(wf.walPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fh.WriteString(`{"seq":999999,"kind":"start_`); err != nil {
		t.Fatal(err)
	}
	fh.Close()

	rec, stats := wf.reopen(t)
	if !stats.TornTail {
		t.Fatal("torn tail not reported")
	}
	mustMatch(t, wf.fixture, rec)
}

// TestTruncationFuzz chops the journal at every suffix length within
// the final records and asserts recovery never fails and always yields
// schema-legal states.
func TestTruncationFuzz(t *testing.T) {
	wf := newWALFixture(t, -1)
	workload(t, wf.fixture)
	if err := wf.eng.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(wf.walPath)
	if err != nil {
		t.Fatal(err)
	}
	d := t.TempDir()
	// Every truncation point in the last ~600 bytes, plus a spread of
	// earlier cuts.
	cuts := []int{0, 1, len(full) / 4, len(full) / 2}
	for n := len(full) - 600; n < len(full); n++ {
		if n > 0 {
			cuts = append(cuts, n)
		}
	}
	for _, n := range cuts {
		walPath := filepath.Join(d, "cut.wal")
		if err := os.WriteFile(walPath, full[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		g := &fixture{clk: vclock.NewVirtual(), schemas: wf.schemas, dir: core.NewDirectory()}
		g.contexts = core.NewRegistry(g.clk)
		g.eng = New(g.clk, g.schemas, g.dir, g.contexts)
		stats, err := g.eng.Recover(filepath.Join(d, "none.snap"), walPath)
		if err != nil {
			t.Fatalf("cut at %d bytes: %v", n, err)
		}
		if stats.Failed != 0 {
			t.Fatalf("cut at %d bytes: %d records failed to replay", n, stats.Failed)
		}
		// Every recovered state must be legal in its schema.
		for _, id := range g.eng.Instances() {
			pi, _ := g.eng.Instance(id)
			st, _ := g.eng.ProcessState(id)
			if !pi.Schema().States().Has(st) {
				t.Fatalf("cut at %d: process %s in unknown state %v", n, id, st)
			}
			for _, ai := range g.eng.ActivitiesOf(id) {
				if ai.State == core.Uninitialized {
					t.Fatalf("cut at %d: activity %s recovered Uninitialized", n, ai.ID)
				}
			}
		}
	}
}

// TestGuardReplayUsesJournaledOutcome: during replay, guard outcomes
// come from the record, not from live re-evaluation. This closes the
// race where a context write lands in the journal on the far side of
// the transition that observed it.
func TestGuardReplayUsesJournaledOutcome(t *testing.T) {
	f := newFixture(t)
	f.eng.replaying.Store(true)
	defer f.eng.replaying.Store(false)
	p := &pending{src: &replaySrc{guards: []bool{false, true}}}
	pi := &ProcessInstance{ctxIDs: map[string]string{}}
	g := &core.Guard{ContextVar: "tfc", Field: "Severity", Op: ">=", Value: 3}
	// With a replay source populated the unbound context var is never
	// touched.
	if ok, err := f.eng.evalGuardLocked(p, pi, g); err != nil || ok {
		t.Fatalf("first journaled outcome: %v, %v", ok, err)
	}
	if ok, err := f.eng.evalGuardLocked(p, pi, g); err != nil || !ok {
		t.Fatalf("second journaled outcome: %v, %v", ok, err)
	}
	// Source exhausted: falls back to live evaluation, which now fails
	// on the unbound variable.
	if _, err := f.eng.evalGuardLocked(p, pi, g); err == nil {
		t.Fatal("live evaluation fallback not reached")
	}
}

// TestWALSchemaInlineDefs: a dynamic activity whose schema is not in
// the registry must replay from inline journal definitions.
func TestWALSchemaInlineDefs(t *testing.T) {
	wf := newWALFixture(t, -1)
	wf.register(t, simpleProcess())
	p1, err := wf.eng.StartProcess("TaskForce", StartOptions{Initiator: "dr.reed"})
	if err != nil {
		t.Fatal(err)
	}
	// Ad-hoc schema, never registered: must be carried in the record.
	adhoc := &core.BasicActivitySchema{Name: "AdHocReview", PerformerRole: epi()}
	if _, err := wf.eng.AddActivity(p1.ID(),
		core.ActivityVariable{Name: "Review", Schema: adhoc, Repeatable: true},
		true, "dr.reed"); err != nil {
		t.Fatal(err)
	}
	rec, _ := wf.reopen(t)
	mustMatch(t, wf.fixture, rec)
	ai := rec.findActivity(t, p1.ID(), "Review")
	if ai.SchemaName != "AdHocReview" || ai.State != core.Ready {
		t.Fatalf("dynamic activity recovered as %+v", ai)
	}
}
