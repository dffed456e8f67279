package enact

import (
	"math/rand"
	"testing"

	"github.com/mcc-cmi/cmi/internal/core"
	"github.com/mcc-cmi/cmi/internal/event"
)

// TestRandomOperationInvariants drives the engine with a long random
// operation sequence (fixed seed: deterministic) and checks the global
// invariants on the emitted event stream:
//
//   - every emitted activity transition is legal in its state schema;
//   - stamps are strictly increasing;
//   - no activity of a process transitions after the process closed;
//   - a closed process never reopens;
//   - after every operation the indexed reads equal the oracle's
//     (checkReads).
func TestRandomOperationInvariants(t *testing.T) {
	f := newFixture(t)
	f.register(t, simpleProcess())

	type evRec struct {
		inst     string
		parent   string
		old, new core.State
	}
	var stream []evRec
	closedProcs := map[string]bool{}
	states := core.GenericStateSchema()
	f.eng.Observe(event.ConsumerFunc(func(e event.Event) {
		rec := evRec{
			inst:   e.String(event.PActivityInstanceID),
			parent: e.String(event.PParentProcessInstanceID),
			old:    core.State(e.String(event.POldState)),
			new:    core.State(e.String(event.PNewState)),
		}
		stream = append(stream, rec)
		if !states.Legal(rec.old, rec.new) {
			t.Errorf("illegal transition emitted: %s -> %s", rec.old, rec.new)
		}
		if rec.parent != "" && closedProcs[rec.parent] {
			t.Errorf("activity %s transitioned after process %s closed", rec.inst, rec.parent)
		}
		if e.String(event.PActivityProcessSchemaID) != "" && states.IsSubstateOf(rec.new, core.Closed) {
			if closedProcs[rec.inst] {
				t.Errorf("process %s closed twice", rec.inst)
			}
			closedProcs[rec.inst] = true
		}
	}))

	rng := rand.New(rand.NewSource(42))
	users := []string{"dr.reed", "dr.okoye", "intern", ""}
	var procs []string
	for op := 0; op < 3000; op++ {
		switch rng.Intn(10) {
		case 0: // start a new process (bounded)
			if len(procs) < 8 {
				pi, err := f.eng.StartProcess("TaskForce", StartOptions{Initiator: users[rng.Intn(len(users))]})
				if err != nil {
					t.Fatal(err)
				}
				procs = append(procs, pi.ID())
			}
		case 1: // terminate a random process
			if len(procs) > 0 && rng.Intn(4) == 0 {
				_ = f.eng.TerminateProcess(procs[rng.Intn(len(procs))], users[rng.Intn(len(users))])
			}
		case 2: // instantiate a repeatable activity
			if len(procs) > 0 {
				_, _ = f.eng.Instantiate(procs[rng.Intn(len(procs))], "LabTest", users[rng.Intn(len(users))])
			}
		default: // random lifecycle op on a random activity
			if len(procs) == 0 {
				continue
			}
			pid := procs[rng.Intn(len(procs))]
			acts := f.eng.ActivitiesOf(pid)
			if len(acts) == 0 {
				continue
			}
			a := acts[rng.Intn(len(acts))]
			u := users[rng.Intn(len(users))]
			switch rng.Intn(5) {
			case 0:
				_ = f.eng.Start(a.ID, u)
			case 1:
				_ = f.eng.Complete(a.ID, u)
			case 2:
				_ = f.eng.Suspend(a.ID, u)
			case 3:
				_ = f.eng.Resume(a.ID, u)
			case 4:
				_ = f.eng.Terminate(a.ID, u)
			}
		}
		checkReads(t, f.eng, oracleUsers...)
		if t.Failed() {
			t.Fatalf("reads diverged from the oracle after op %d", op)
		}
	}
	if len(stream) < 100 {
		t.Fatalf("random run produced only %d events", len(stream))
	}
	// Stamps strictly increasing.
	for i := 1; i < len(f.events); i++ {
		if !f.events[i-1].Stamp.Before(f.events[i].Stamp) {
			t.Fatalf("event stamps out of order at %d", i)
		}
	}
	// Closed processes stay closed and their activities are all closed.
	for pid := range closedProcs {
		if st, ok := f.eng.ProcessState(pid); ok {
			if !states.IsSubstateOf(st, core.Closed) {
				t.Errorf("process %s reported %s after closing", pid, st)
			}
		}
		for _, a := range f.eng.ActivitiesOf(pid) {
			if isActive(states, a.State) {
				t.Errorf("activity %s of closed process %s is %s", a.ID, pid, a.State)
			}
		}
	}
}

// TestWorklistConsistency: after arbitrary operations, every item on a
// participant's worklist is actionable — Ready items can be started by
// that participant, Running items are theirs.
func TestWorklistConsistency(t *testing.T) {
	f := newFixture(t)
	f.register(t, simpleProcess())
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 3; i++ {
		if _, err := f.eng.StartProcess("TaskForce", StartOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	users := []string{"dr.reed", "dr.okoye"}
	for op := 0; op < 200; op++ {
		u := users[rng.Intn(len(users))]
		items := f.eng.Worklist(u)
		if len(items) == 0 {
			break
		}
		it := items[rng.Intn(len(items))]
		switch it.State {
		case core.Ready:
			if err := f.eng.Start(it.ActivityID, u); err != nil {
				t.Fatalf("worklist Ready item not startable by %s: %v", u, err)
			}
		case core.Running:
			got, _ := f.eng.Activity(it.ActivityID)
			if got.Assignee != u {
				t.Fatalf("running worklist item of %s assigned to %q", u, got.Assignee)
			}
			if err := f.eng.Complete(it.ActivityID, u); err != nil {
				t.Fatalf("worklist Running item not completable: %v", err)
			}
		}
	}
}
