package enact

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"github.com/mcc-cmi/cmi/internal/core"
	"github.com/mcc-cmi/cmi/internal/vclock"
)

// Differential oracle for the read side. refWorklist and refMonitor are
// the implementations the engine shipped before it kept an open-work
// index and id-ordered rows: a full scan of every activity ever created,
// and a rebuild-and-sort of the family's rows. They know nothing about
// stripe.open or ProcessInstance.byID, so agreement with the indexed
// reads after every operation is evidence the index is maintained on
// every path that changes a state.

// refWorklist is the full-scan worklist. Call with every stripe held.
func refWorklist(e *Engine, participantID string) []WorkItem {
	e.idx.RLock()
	defer e.idx.RUnlock()
	var out []WorkItem
	for _, ai := range e.activities {
		states := ai.schema.States()
		var include bool
		switch {
		case states.IsSubstateOf(ai.state, core.Ready):
			if ai.assignee != "" {
				include = ai.assignee == participantID
				break
			}
			role := performerRole(ai.schema)
			if role == "" {
				include = false // automatic activity; not human work
				break
			}
			ids, err := e.contexts.ResolveRole(e.dir, role, ai.proc.Ref())
			if err == nil {
				for _, id := range ids {
					if id == participantID {
						include = true
						break
					}
				}
			}
		case states.IsSubstateOf(ai.state, core.Running) || states.IsSubstateOf(ai.state, core.Suspended):
			include = ai.assignee == participantID
		}
		if include {
			out = append(out, WorkItem{
				ActivityID:    ai.id,
				Var:           ai.varName,
				SchemaName:    ai.schema.SchemaName(),
				ProcessID:     ai.proc.id,
				ProcessSchema: ai.proc.schema.Name,
				State:         ai.state,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ActivityID < out[j].ActivityID })
	return out
}

// refMonitor is the sort-based monitor. Call with the family's stripe
// held.
func refMonitor(e *Engine, processID string) []MonitorRow {
	var out []MonitorRow
	refMonitorRows(e, processID, &out)
	sort.Slice(out, func(i, j int) bool {
		if out[i].ProcessID != out[j].ProcessID {
			return out[i].ProcessID < out[j].ProcessID
		}
		return out[i].ActivityID < out[j].ActivityID
	})
	return out
}

func refMonitorRows(e *Engine, processID string, out *[]MonitorRow) {
	pi, ok := e.proc(processID)
	if !ok {
		return
	}
	for _, av := range pi.allActivityVars() {
		for _, ai := range pi.acts[av.Name] {
			*out = append(*out, MonitorRow{
				ProcessID:     pi.id,
				ProcessSchema: pi.schema.Name,
				ActivityID:    ai.id,
				Var:           ai.varName,
				State:         ai.state,
				Assignee:      ai.assignee,
			})
			if ai.child != nil {
				refMonitorRows(e, ai.child.id, out)
			}
		}
	}
}

// checkReads holds every stripe — so concurrent operations cannot slip
// between the two sides of a comparison — and asserts, for the state of
// that instant: the indexed Worklist of each participant equals the full
// scan; the id-ordered Monitor of every process equals the sorted one;
// and the open-work index holds exactly the active instances, each at
// the position it records. It reports with t.Errorf, so workers other
// than the test goroutine may call it.
func checkReads(t testing.TB, e *Engine, participants ...string) {
	t.Helper()
	h := e.lockAll()
	defer h.unlock()
	for _, p := range participants {
		got, want := e.worklistHeld(p), refWorklist(e, p)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Worklist(%q) diverged from the full scan:\n indexed: %v\n    scan: %v", p, got, want)
		}
	}
	e.idx.RLock()
	procs := make([]*ProcessInstance, 0, len(e.procs))
	for _, pi := range e.procs {
		procs = append(procs, pi)
	}
	active := 0
	for _, ai := range e.activities {
		isOpen := isActive(ai.schema.States(), ai.state)
		if isOpen {
			active++
		}
		if isOpen != (ai.openAt != 0) {
			t.Errorf("activity %s is %s but openAt=%d", ai.id, ai.state, ai.openAt)
		}
		if ai.openAt != 0 {
			open := e.stripes[ai.proc.stripe].open
			if ai.openAt > len(open) || open[ai.openAt-1] != ai {
				t.Errorf("activity %s records open position %d, which holds another instance", ai.id, ai.openAt)
			}
		}
	}
	e.idx.RUnlock()
	indexed := 0
	for _, st := range e.stripes {
		indexed += len(st.open)
	}
	if indexed != active || e.openActs.Load() != int64(active) {
		t.Errorf("open-work index holds %d (gauge %d), engine has %d active instances", indexed, e.openActs.Load(), active)
	}
	for _, pi := range procs {
		got, want := monitorHeld(pi), refMonitor(e, pi.id)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Monitor(%s) diverged from the sorted rebuild:\n ordered: %v\n  sorted: %v", pi.id, got, want)
		}
	}
}

// oracleUsers is every participant the enact fixtures know, plus one
// nobody knows.
var oracleUsers = []string{"dr.reed", "dr.okoye", "intern", "nobody"}

// TestReadsMatchOracleAcrossRoleChanges walks the cases where what a
// participant may work on changes without the activity changing state —
// org and scoped roles reassigned while activities sit Ready — and the
// transitions that move an instance between worklist arms (assign,
// suspend, resume, terminate, a closing subprocess syncing its invoking
// activity), checking the oracle after every step and the headline
// expectations explicitly.
func TestReadsMatchOracleAcrossRoleChanges(t *testing.T) {
	f := newFixture(t)
	f.register(t, infoRequestModel())
	f.register(t, &core.ProcessSchema{
		Name: "ScopedPerf",
		ResourceVars: []core.ResourceVariable{
			{Name: "c", Usage: core.UsageLocal, Schema: &core.ResourceSchema{
				Name: "PerfCtx", Kind: core.ContextResource,
				Fields: []core.FieldDef{{Name: "Lead", Type: core.FieldRole}},
			}},
		},
		Activities: []core.ActivityVariable{
			{Name: "A", Schema: basic("A", core.ScopedRole("PerfCtx", "Lead"))},
		},
	})
	step := func(what string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		checkReads(t, f.eng, oracleUsers...)
		if t.Failed() {
			t.Fatalf("oracle diverged after: %s", what)
		}
	}
	has := func(user, activityID string) bool {
		for _, it := range f.eng.Worklist(user) {
			if it.ActivityID == activityID {
				return true
			}
		}
		return false
	}

	tf, err := f.eng.StartProcess("TaskForceP", StartOptions{Initiator: "dr.reed"})
	step("start TaskForceP", err)
	org := f.findActivity(t, tf.ID(), "Organize")

	// Org role granted, then revoked, after Organize became Ready.
	if has("intern", org.ID) {
		t.Fatal("intern sees Organize before playing Epidemiologist")
	}
	step("AssignRole", f.dir.AssignRole("Epidemiologist", "intern"))
	if !has("intern", org.ID) {
		t.Fatal("worklist ignores a role assigned after the activity became Ready")
	}
	f.dir.UnassignRole("Epidemiologist", "intern")
	step("UnassignRole", nil)
	if has("intern", org.ID) {
		t.Fatal("worklist still lists Organize after the role was revoked")
	}

	// Scoped role set, then moved, while A is Ready.
	sp, err := f.eng.StartProcess("ScopedPerf", StartOptions{})
	step("start ScopedPerf", err)
	a := f.findActivity(t, sp.ID(), "A")
	ctxID, _ := f.eng.ContextID(sp.ID(), "c")
	step("scoped role -> okoye", f.contexts.SetField(ctxID, "Lead", core.NewRoleValue("dr.okoye")))
	if !has("dr.okoye", a.ID) || has("dr.reed", a.ID) {
		t.Fatal("scoped role set after Ready not reflected")
	}
	step("scoped role -> reed", f.contexts.SetField(ctxID, "Lead", core.NewRoleValue("dr.reed")))
	if has("dr.okoye", a.ID) || !has("dr.reed", a.ID) {
		t.Fatal("scoped role moved after Ready not reflected")
	}

	// Assign narrows a Ready item to one performer; suspend/resume keep
	// it theirs; terminate removes it.
	step("assign", f.eng.Assign(org.ID, "dr.okoye"))
	if has("dr.reed", org.ID) || !has("dr.okoye", org.ID) {
		t.Fatal("assigned Ready activity not exclusive to its assignee")
	}
	step("start", f.eng.Start(org.ID, "dr.okoye"))
	step("suspend", f.eng.Suspend(org.ID, "dr.okoye"))
	if !has("dr.okoye", org.ID) {
		t.Fatal("suspended activity left its assignee's worklist")
	}
	step("resume", f.eng.Resume(org.ID, "dr.okoye"))
	step("complete", f.eng.Complete(org.ID, "dr.okoye"))
	if has("dr.okoye", org.ID) {
		t.Fatal("completed activity still on the worklist")
	}
	step("terminate Ready A", f.eng.Terminate(a.ID, "dr.reed"))
	if has("dr.reed", a.ID) {
		t.Fatal("terminated activity still on the worklist")
	}

	// Subprocess: the invoking activity's state is synced from the child
	// when the child closes, without an event of its own.
	req := f.findActivity(t, tf.ID(), "RequestInfo")
	step("start subprocess", f.eng.Start(req.ID, "dr.reed"))
	if !has("dr.reed", req.ID) {
		t.Fatal("running subprocess invocation not on its starter's worklist")
	}
	gather := f.findActivity(t, req.ID, "Gather")
	step("start Gather", f.eng.Start(gather.ID, "dr.reed"))
	step("complete Gather", f.eng.Complete(gather.ID, "dr.reed"))
	deliver := f.findActivity(t, req.ID, "Deliver")
	step("start Deliver", f.eng.Start(deliver.ID, "dr.reed"))
	step("complete Deliver (closes the subprocess)", f.eng.Complete(deliver.ID, "dr.reed"))
	if got, _ := f.eng.Activity(req.ID); got.State != core.Completed {
		t.Fatalf("invoking activity is %s after its subprocess completed", got.State)
	}
	if has("dr.reed", req.ID) {
		t.Fatal("closed subprocess invocation still on the worklist")
	}

	// A second family whose subprocess is terminated through its
	// invoking activity.
	tf2, err := f.eng.StartProcess("TaskForceP", StartOptions{Initiator: "dr.reed"})
	step("start second TaskForceP", err)
	f.run(t, tf2.ID(), "Organize", "dr.reed")
	req2 := f.findActivity(t, tf2.ID(), "RequestInfo")
	step("start second subprocess", f.eng.Start(req2.ID, "dr.okoye"))
	step("terminate subprocess via activity", f.eng.Terminate(req2.ID, "dr.okoye"))
	step("terminate process", f.eng.TerminateProcess(tf2.ID(), "dr.reed"))
}

// TestRecoveredReadsMatchOracle recovers a snapshot plus a WAL suffix —
// through the sequential path and through the parallel family lanes —
// and checks that the rebuilt index and row order serve exactly the
// live engine's reads.
func TestRecoveredReadsMatchOracle(t *testing.T) {
	wf := newWALFixture(t, -1)
	workload(t, wf.fixture)
	if err := wf.eng.Compact(); err != nil {
		t.Fatal(err)
	}
	// The suffix: new work, and transitions of instances that came in
	// through the snapshot (open ones closing, Ready ones starting).
	p, err := wf.eng.StartProcess("TaskForce", StartOptions{Initiator: "dr.reed"})
	if err != nil {
		t.Fatal(err)
	}
	wf.run(t, p.ID(), "Plan", "dr.okoye")
	for _, id := range wf.eng.Instances() {
		for _, ai := range wf.eng.ActivitiesOf(id) {
			switch {
			case ai.Var == "Escalate" && ai.State == core.Ready:
				wf.mustStart(t, ai.ID, "dr.reed")
			case ai.Var == "Deliver" && ai.State == core.Ready:
				wf.mustStart(t, ai.ID, "dr.okoye")
				wf.mustComplete(t, ai.ID, "dr.okoye") // closes the subprocess
			}
		}
	}
	checkReads(t, wf.eng, oracleUsers...)

	for _, stripes := range []int{1, 4} {
		t.Run(fmt.Sprintf("stripes=%d", stripes), func(t *testing.T) {
			rec, stats := wf.reopenStriped(t, stripes)
			if !stats.SnapshotLoaded || stats.Replayed == 0 || stats.Failed != 0 {
				t.Fatalf("want snapshot + replayed suffix, got %+v", stats)
			}
			if stripes > 1 && stats.Lanes != stripes {
				t.Fatalf("replayed in %d lanes, want the parallel path", stats.Lanes)
			}
			// The directory is not persisted: give the recovered engine
			// the live one's roles so role-resolved items compare.
			for _, u := range []string{"dr.reed", "dr.okoye", "intern"} {
				if err := rec.dir.AddParticipant(core.Participant{ID: u, Name: u, Kind: core.Human}); err != nil {
					t.Fatal(err)
				}
			}
			for _, u := range []string{"dr.reed", "dr.okoye"} {
				if err := rec.dir.AssignRole("Epidemiologist", u); err != nil {
					t.Fatal(err)
				}
			}
			checkReads(t, rec.eng, oracleUsers...)
			for _, u := range oracleUsers {
				if got, want := rec.eng.Worklist(u), wf.eng.Worklist(u); !reflect.DeepEqual(got, want) {
					t.Errorf("recovered Worklist(%q) = %v, live = %v", u, got, want)
				}
			}
			for _, id := range wf.eng.Instances() {
				if got, want := rec.eng.Monitor(id), wf.eng.Monitor(id); !reflect.DeepEqual(got, want) {
					t.Errorf("recovered Monitor(%s) = %v, live = %v", id, got, want)
				}
			}
		})
	}
}

// historyFixture drives `cycles` completed Step cycles through one
// process whose Hold and first Step stay Ready, so the open work is the
// same however long the history.
func historyFixture(t testing.TB, cycles int) (*Engine, string) {
	t.Helper()
	clk := vclock.NewVirtual()
	schemas := core.NewSchemaRegistry()
	dir := core.NewDirectory()
	if err := dir.AddParticipant(core.Participant{ID: "u0", Name: "u0", Kind: core.Human}); err != nil {
		t.Fatal(err)
	}
	if err := dir.AssignRole("Solo", "u0"); err != nil {
		t.Fatal(err)
	}
	if err := schemas.Register(&core.ProcessSchema{
		Name: "History",
		Activities: []core.ActivityVariable{
			{Name: "Step", Schema: basic("HistoryStep", core.OrgRole("Solo")), Repeatable: true},
			{Name: "Hold", Schema: basic("HistoryHold", core.OrgRole("Solo"))},
		},
	}); err != nil {
		t.Fatal(err)
	}
	eng := New(clk, schemas, dir, core.NewRegistry(clk))
	pi, err := eng.StartProcess("History", StartOptions{Initiator: "u0"})
	if err != nil {
		t.Fatal(err)
	}
	driveCycles(t, eng, pi.ID(), cycles)
	return eng, pi.ID()
}

func driveCycles(t testing.TB, eng *Engine, processID string, cycles int) {
	t.Helper()
	for i := 0; i < cycles; i++ {
		ai, err := eng.Instantiate(processID, "Step", "u0")
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Start(ai.ID, "u0"); err != nil {
			t.Fatal(err)
		}
		if err := eng.Complete(ai.ID, "u0"); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReadCostIndependentOfHistory: a worklist read visits the open
// work, not the history — same index size, same allocations after 100
// and after 10,000 completed cycles — and a monitor read is one
// pre-sized copy in stored order, never a per-row sort.
func TestReadCostIndependentOfHistory(t *testing.T) {
	eng, pid := historyFixture(t, 100)
	measure := func() (visits int64, wlAllocs, monAllocs float64) {
		visits = eng.openActs.Load()
		wlAllocs = testing.AllocsPerRun(20, func() { eng.Worklist("u0") })
		monAllocs = testing.AllocsPerRun(20, func() { eng.Monitor(pid) })
		return
	}
	v1, w1, m1 := measure()
	if got := len(eng.Monitor(pid)); got != 102 {
		t.Fatalf("monitor has %d rows after 100 cycles, want 102", got)
	}
	driveCycles(t, eng, pid, 9_900)
	v2, w2, m2 := measure()
	if got := len(eng.Monitor(pid)); got != 10_002 {
		t.Fatalf("monitor has %d rows after 10,000 cycles, want 10,002", got)
	}
	if v1 != 2 || v2 != v1 {
		t.Errorf("Worklist visits %d instances after 100 cycles and %d after 10,000; want 2 both times", v1, v2)
	}
	if w1 != w2 {
		t.Errorf("Worklist allocates %.0f times after 100 cycles, %.0f after 10,000", w1, w2)
	}
	if m1 != m2 {
		t.Errorf("Monitor allocates %.0f times at 102 rows, %.0f at 10,002: the result is not pre-sized", m1, m2)
	}
	checkReads(t, eng, "u0")

	// No per-row sort: the row order is the stored order and nothing
	// else. Swap two stored rows and the swap shows through.
	pi, _ := eng.proc(pid)
	h := eng.lockStripe(pi.stripe)
	pi.byID[0], pi.byID[1] = pi.byID[1], pi.byID[0]
	rows := monitorHeld(pi)
	pi.byID[0], pi.byID[1] = pi.byID[1], pi.byID[0]
	h.unlock()
	if rows[0].ActivityID != pi.byID[1].id || rows[1].ActivityID != pi.byID[0].id {
		t.Errorf("Monitor reordered rows it was handed (%s, %s): it sorts per row", rows[0].ActivityID, rows[1].ActivityID)
	}
}

var benchSink int

func benchmarkReads(b *testing.B, read func(eng *Engine, pid string) int) {
	for _, cycles := range []int{100, 10_000} {
		eng, pid := historyFixture(b, cycles) // once per size, not once per b.N calibration
		b.Run(fmt.Sprintf("completed=%d", cycles), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink += read(eng, pid)
			}
		})
	}
}

// BenchmarkWorklist reads one participant's worklist over two open
// activities behind 100 and 10,000 completed ones.
func BenchmarkWorklist(b *testing.B) {
	benchmarkReads(b, func(eng *Engine, _ string) int { return len(eng.Worklist("u0")) })
}

// BenchmarkMonitor reads one process's monitor rows at 102 and 10,002
// rows.
func BenchmarkMonitor(b *testing.B) {
	benchmarkReads(b, func(eng *Engine, pid string) int { return len(eng.Monitor(pid)) })
}
