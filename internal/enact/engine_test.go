package enact

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/mcc-cmi/cmi/internal/core"
	"github.com/mcc-cmi/cmi/internal/event"
	"github.com/mcc-cmi/cmi/internal/vclock"
)

// fixture wires a full engine with directory, contexts and an event log.
type fixture struct {
	clk      *vclock.Virtual
	schemas  *core.SchemaRegistry
	dir      *core.Directory
	contexts *core.Registry
	eng      *Engine
	events   []event.Event
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	f := &fixture{
		clk:     vclock.NewVirtual(),
		schemas: core.NewSchemaRegistry(),
		dir:     core.NewDirectory(),
	}
	f.contexts = core.NewRegistry(f.clk)
	f.eng = New(f.clk, f.schemas, f.dir, f.contexts)
	f.eng.Observe(event.ConsumerFunc(func(e event.Event) { f.events = append(f.events, e) }))
	for _, p := range []core.Participant{
		{ID: "dr.reed", Name: "Dr Reed", Kind: core.Human},
		{ID: "dr.okoye", Name: "Dr Okoye", Kind: core.Human},
		{ID: "intern", Name: "Intern", Kind: core.Human},
	} {
		if err := f.dir.AddParticipant(p); err != nil {
			t.Fatal(err)
		}
	}
	for _, a := range [][2]string{
		{"Epidemiologist", "dr.reed"},
		{"Epidemiologist", "dr.okoye"},
		{"Intern", "intern"},
	} {
		if err := f.dir.AssignRole(a[0], a[1]); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

func (f *fixture) register(t *testing.T, s core.ActivitySchema) {
	t.Helper()
	if err := f.schemas.Register(s); err != nil {
		t.Fatal(err)
	}
}

func basic(name string, role core.RoleRef) *core.BasicActivitySchema {
	return &core.BasicActivitySchema{Name: name, PerformerRole: role}
}

func epi() core.RoleRef { return core.OrgRole("Epidemiologist") }

// simpleProcess: Plan -> (Interview, LabTest[repeatable]) -> and-join Report.
func simpleProcess() *core.ProcessSchema {
	return &core.ProcessSchema{
		Name: "TaskForce",
		ResourceVars: []core.ResourceVariable{
			{Name: "tfc", Usage: core.UsageLocal, Schema: &core.ResourceSchema{
				Name: "TaskForceContext",
				Kind: core.ContextResource,
				Fields: []core.FieldDef{
					{Name: "TaskForceMembers", Type: core.FieldRole},
					{Name: "TaskForceDeadline", Type: core.FieldTime},
					{Name: "Severity", Type: core.FieldInt},
				},
			}},
		},
		Activities: []core.ActivityVariable{
			{Name: "Plan", Schema: basic("PlanWork", epi())},
			{Name: "Interview", Schema: basic("InterviewPatients", epi())},
			{Name: "LabTest", Schema: basic("RunLabTest", epi()), Repeatable: true},
			{Name: "Report", Schema: basic("WriteReport", epi())},
		},
		Dependencies: []core.Dependency{
			{Type: core.DepSequence, Sources: []string{"Plan"}, Target: "Interview"},
			{Type: core.DepSequence, Sources: []string{"Plan"}, Target: "LabTest"},
			{Type: core.DepAndJoin, Sources: []string{"Interview", "LabTest"}, Target: "Report"},
		},
	}
}

func (f *fixture) startSimple(t *testing.T) *ProcessInstance {
	t.Helper()
	f.register(t, simpleProcess())
	pi, err := f.eng.StartProcess("TaskForce", StartOptions{Initiator: "dr.reed"})
	if err != nil {
		t.Fatal(err)
	}
	return pi
}

// findActivity returns the first instance of a variable in a process.
func (f *fixture) findActivity(t *testing.T, processID, varName string) ActivityInfo {
	t.Helper()
	for _, ai := range f.eng.ActivitiesOf(processID) {
		if ai.Var == varName {
			return ai
		}
	}
	t.Fatalf("no instance of %q in %s", varName, processID)
	return ActivityInfo{}
}

func (f *fixture) mustStart(t *testing.T, activityID, user string) {
	t.Helper()
	if err := f.eng.Start(activityID, user); err != nil {
		t.Fatal(err)
	}
}

func (f *fixture) mustComplete(t *testing.T, activityID, user string) {
	t.Helper()
	if err := f.eng.Complete(activityID, user); err != nil {
		t.Fatal(err)
	}
}

func (f *fixture) run(t *testing.T, processID, varName, user string) {
	t.Helper()
	ai := f.findActivity(t, processID, varName)
	f.mustStart(t, ai.ID, user)
	f.mustComplete(t, ai.ID, user)
}

func TestStartProcessCreatesEntryActivities(t *testing.T) {
	f := newFixture(t)
	pi := f.startSimple(t)

	st, ok := f.eng.ProcessState(pi.ID())
	if !ok || st != core.Running {
		t.Fatalf("process state = %v, %v", st, ok)
	}
	acts := f.eng.ActivitiesOf(pi.ID())
	if len(acts) != 1 || acts[0].Var != "Plan" || acts[0].State != core.Ready {
		t.Fatalf("activities = %+v", acts)
	}
	// A context was created and associated.
	ctxID, ok := f.eng.ContextID(pi.ID(), "tfc")
	if !ok {
		t.Fatal("context not bound")
	}
	assoc := f.contexts.Associations(ctxID)
	if len(assoc) != 1 || assoc[0] != pi.Ref() {
		t.Fatalf("associations = %v", assoc)
	}
	// Events: process Uninitialized->Ready->Running, Plan Uninitialized->Ready.
	if len(f.events) != 3 {
		t.Fatalf("got %d events: %v", len(f.events), f.events)
	}
	pe := f.events[0]
	if pe.String(event.PActivityInstanceID) != pi.ID() ||
		pe.String(event.PActivityProcessSchemaID) != "TaskForce" ||
		pe.String(event.POldState) != "Uninitialized" || pe.String(event.PNewState) != "Ready" {
		t.Fatalf("first event = %#v", pe)
	}
	if _, ok := pe.Get(event.PParentProcessSchemaID); ok {
		t.Fatal("top-level process event must not carry parent fields")
	}
	ae := f.events[2]
	if ae.String(event.PParentProcessSchemaID) != "TaskForce" ||
		ae.String(event.PParentProcessInstanceID) != pi.ID() ||
		ae.String(event.PActivityVariableID) != "Plan" {
		t.Fatalf("activity event = %#v", ae)
	}
}

func TestUnknownSchemaRejected(t *testing.T) {
	f := newFixture(t)
	if _, err := f.eng.StartProcess("Nope", StartOptions{}); err == nil {
		t.Fatal("unknown schema accepted")
	}
}

func TestSequenceAndJoinFlow(t *testing.T) {
	f := newFixture(t)
	pi := f.startSimple(t)

	f.run(t, pi.ID(), "Plan", "dr.reed")
	// Plan completion enables Interview and LabTest.
	acts := f.eng.ActivitiesOf(pi.ID())
	byVar := map[string]core.State{}
	for _, a := range acts {
		byVar[a.Var] = a.State
	}
	if byVar["Interview"] != core.Ready || byVar["LabTest"] != core.Ready {
		t.Fatalf("after Plan: %v", byVar)
	}
	if _, ok := byVar["Report"]; ok {
		t.Fatal("Report enabled too early")
	}

	f.run(t, pi.ID(), "Interview", "dr.okoye")
	// And-join not satisfied yet.
	for _, a := range f.eng.ActivitiesOf(pi.ID()) {
		if a.Var == "Report" {
			t.Fatal("Report enabled before LabTest completed")
		}
	}
	f.run(t, pi.ID(), "LabTest", "dr.reed")
	report := f.findActivity(t, pi.ID(), "Report")
	if report.State != core.Ready {
		t.Fatalf("Report state = %v", report.State)
	}
	f.mustStart(t, report.ID, "dr.reed")
	f.mustComplete(t, report.ID, "dr.reed")

	// All activities done: the process auto-completes and retires its
	// context.
	st, _ := f.eng.ProcessState(pi.ID())
	if st != core.Completed {
		t.Fatalf("process state = %v, want Completed", st)
	}
	ctxID, _ := f.eng.ContextID(pi.ID(), "tfc")
	if _, ok := f.contexts.Get(ctxID); ok {
		t.Fatal("owned context not retired on completion")
	}
}

func TestPerformerRoleEnforced(t *testing.T) {
	f := newFixture(t)
	pi := f.startSimple(t)
	plan := f.findActivity(t, pi.ID(), "Plan")
	if err := f.eng.Start(plan.ID, "intern"); err == nil {
		t.Fatal("intern allowed to start an epidemiologist activity")
	}
	if err := f.eng.Start(plan.ID, "dr.reed"); err != nil {
		t.Fatal(err)
	}
	got, _ := f.eng.Activity(plan.ID)
	if got.State != core.Running || got.Assignee != "dr.reed" {
		t.Fatalf("after start: %+v", got)
	}
}

func TestAssignValidation(t *testing.T) {
	f := newFixture(t)
	pi := f.startSimple(t)
	plan := f.findActivity(t, pi.ID(), "Plan")
	if err := f.eng.Assign(plan.ID, "intern"); err == nil {
		t.Fatal("assignment outside role accepted")
	}
	if err := f.eng.Assign(plan.ID, "dr.okoye"); err != nil {
		t.Fatal(err)
	}
	if err := f.eng.Assign("ghost", "dr.reed"); err == nil {
		t.Fatal("unknown activity accepted")
	}
	f.mustStart(t, plan.ID, "dr.okoye")
	if err := f.eng.Assign(plan.ID, "dr.okoye"); err == nil {
		t.Fatal("assignment of running activity accepted")
	}
}

func TestIllegalTransitions(t *testing.T) {
	f := newFixture(t)
	pi := f.startSimple(t)
	plan := f.findActivity(t, pi.ID(), "Plan")
	if err := f.eng.Complete(plan.ID, "dr.reed"); err == nil {
		t.Fatal("complete from Ready accepted")
	}
	if err := f.eng.Resume(plan.ID, "dr.reed"); err == nil {
		t.Fatal("resume from Ready accepted")
	}
	f.mustStart(t, plan.ID, "dr.reed")
	if err := f.eng.Start(plan.ID, "dr.reed"); err == nil {
		t.Fatal("double start accepted")
	}
	if err := f.eng.Suspend(plan.ID, "dr.reed"); err != nil {
		t.Fatal(err)
	}
	if err := f.eng.Complete(plan.ID, "dr.reed"); err == nil {
		t.Fatal("complete from Suspended accepted")
	}
	if err := f.eng.Resume(plan.ID, "dr.reed"); err != nil {
		t.Fatal(err)
	}
	f.mustComplete(t, plan.ID, "dr.reed")
	if err := f.eng.Complete("ghost", "x"); err == nil {
		t.Fatal("unknown activity accepted")
	}
	if err := f.eng.Terminate("ghost", "x"); err == nil {
		t.Fatal("unknown activity accepted")
	}
	if err := f.eng.Transition("ghost", core.Running, "x"); err == nil {
		t.Fatal("unknown activity accepted")
	}
	if err := f.eng.Transition(plan.ID, core.Running, "x"); err == nil {
		t.Fatal("illegal explicit transition accepted")
	}
}

func TestRepeatableInstantiate(t *testing.T) {
	f := newFixture(t)
	pi := f.startSimple(t)
	f.run(t, pi.ID(), "Plan", "dr.reed")
	lab1 := f.findActivity(t, pi.ID(), "LabTest")
	f.mustStart(t, lab1.ID, "dr.reed")
	// Issue a second lab test while the first runs (Figure 1).
	lab2, err := f.eng.Instantiate(pi.ID(), "LabTest", "dr.okoye")
	if err != nil {
		t.Fatal(err)
	}
	if lab2.ID == lab1.ID || lab2.State != core.Ready {
		t.Fatalf("second lab = %+v", lab2)
	}
	// Non-repeatable activities refuse.
	if _, err := f.eng.Instantiate(pi.ID(), "Plan", "dr.reed"); err == nil {
		t.Fatal("re-instantiating non-repeatable activity accepted")
	}
	if _, err := f.eng.Instantiate(pi.ID(), "Ghost", "dr.reed"); err == nil {
		t.Fatal("unknown variable accepted")
	}
	if _, err := f.eng.Instantiate("ghost", "LabTest", "dr.reed"); err == nil {
		t.Fatal("unknown process accepted")
	}
}

func TestGuardDependency(t *testing.T) {
	f := newFixture(t)
	p := &core.ProcessSchema{
		Name: "Guarded",
		ResourceVars: []core.ResourceVariable{
			{Name: "c", Usage: core.UsageLocal, Schema: &core.ResourceSchema{
				Name:   "GuardCtx",
				Kind:   core.ContextResource,
				Fields: []core.FieldDef{{Name: "Severity", Type: core.FieldInt}},
			}},
		},
		Activities: []core.ActivityVariable{
			{Name: "Assess", Schema: basic("Assess", epi())},
			// Escalate is optional: the guard may never fire (Section 2's
			// "whether or not to issue an additional lab test depends on
			// the collective results").
			{Name: "Escalate", Schema: basic("Escalate", epi()), Optional: true},
			// Wrap keeps the process open after Assess so run 2 can
			// observe the guard-enabled Escalate.
			{Name: "Wrap", Schema: basic("Wrap", epi())},
		},
		Dependencies: []core.Dependency{
			{Type: core.DepGuard, Sources: []string{"Assess"}, Target: "Escalate",
				Guard: &core.Guard{ContextVar: "c", Field: "Severity", Op: ">=", Value: 3}},
			{Type: core.DepSequence, Sources: []string{"Assess"}, Target: "Wrap"},
		},
	}
	f.register(t, p)

	// Run 1: severity below threshold -> Escalate never enabled.
	pi, err := f.eng.StartProcess("Guarded", StartOptions{Initiator: "dr.reed"})
	if err != nil {
		t.Fatal(err)
	}
	ctxID, _ := f.eng.ContextID(pi.ID(), "c")
	if err := f.contexts.SetField(ctxID, "Severity", 2); err != nil {
		t.Fatal(err)
	}
	f.run(t, pi.ID(), "Assess", "dr.reed")
	for _, a := range f.eng.ActivitiesOf(pi.ID()) {
		if a.Var == "Escalate" {
			t.Fatal("guard fired below threshold")
		}
	}
	f.run(t, pi.ID(), "Wrap", "dr.reed")
	if st, _ := f.eng.ProcessState(pi.ID()); st != core.Completed {
		t.Fatalf("run1 state = %v", st)
	}

	// Run 2: severity at threshold -> Escalate enabled.
	pi2, err := f.eng.StartProcess("Guarded", StartOptions{Initiator: "dr.reed"})
	if err != nil {
		t.Fatal(err)
	}
	ctxID2, _ := f.eng.ContextID(pi2.ID(), "c")
	if err := f.contexts.SetField(ctxID2, "Severity", 3); err != nil {
		t.Fatal(err)
	}
	f.run(t, pi2.ID(), "Assess", "dr.reed")
	esc := f.findActivity(t, pi2.ID(), "Escalate")
	if esc.State != core.Ready {
		t.Fatalf("Escalate state = %v", esc.State)
	}
	f.run(t, pi2.ID(), "Escalate", "dr.reed")
	f.run(t, pi2.ID(), "Wrap", "dr.reed")
	if st, _ := f.eng.ProcessState(pi2.ID()); st != core.Completed {
		t.Fatalf("run2 state = %v", st)
	}
}

func TestOrJoinEnablesOnFirstCompletion(t *testing.T) {
	f := newFixture(t)
	p := &core.ProcessSchema{
		Name: "OrJoin",
		Activities: []core.ActivityVariable{
			{Name: "A", Schema: basic("A", epi())},
			{Name: "B", Schema: basic("B", epi())},
			{Name: "C", Schema: basic("C", epi())},
		},
		Dependencies: []core.Dependency{
			{Type: core.DepOrJoin, Sources: []string{"A", "B"}, Target: "C"},
		},
	}
	f.register(t, p)
	pi, err := f.eng.StartProcess("OrJoin", StartOptions{})
	if err != nil {
		t.Fatal(err)
	}
	f.run(t, pi.ID(), "A", "dr.reed")
	c := f.findActivity(t, pi.ID(), "C")
	if c.State != core.Ready {
		t.Fatalf("C = %v after first or-join source", c.State)
	}
	// Completing B must not create a second C instance (non-repeatable).
	f.run(t, pi.ID(), "B", "dr.reed")
	count := 0
	for _, a := range f.eng.ActivitiesOf(pi.ID()) {
		if a.Var == "C" {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("C instantiated %d times", count)
	}
}

// TestCancelDependency reproduces the Section 2 pattern: a positive lab
// test makes the alternative tests unnecessary.
func TestCancelDependency(t *testing.T) {
	f := newFixture(t)
	p := &core.ProcessSchema{
		Name: "LabBattery",
		Activities: []core.ActivityVariable{
			{Name: "Culture", Schema: basic("CultureTest", epi())},
			{Name: "PCR", Schema: basic("PCRTest", epi())},
			{Name: "Serology", Schema: basic("SerologyTest", epi())},
		},
		Dependencies: []core.Dependency{
			{Type: core.DepCancel, Sources: []string{"PCR"}, Target: "Culture"},
			{Type: core.DepCancel, Sources: []string{"PCR"}, Target: "Serology"},
		},
	}
	f.register(t, p)
	pi, err := f.eng.StartProcess("LabBattery", StartOptions{})
	if err != nil {
		t.Fatal(err)
	}
	culture := f.findActivity(t, pi.ID(), "Culture")
	f.mustStart(t, culture.ID, "dr.reed") // running when cancelled
	f.run(t, pi.ID(), "PCR", "dr.okoye")

	got, _ := f.eng.Activity(culture.ID)
	if got.State != core.Terminated {
		t.Fatalf("Culture = %v, want Terminated", got.State)
	}
	ser := f.findActivity(t, pi.ID(), "Serology")
	if ser.State != core.Terminated {
		t.Fatalf("Serology = %v, want Terminated", ser.State)
	}
	// Cancelled variables do not block completion.
	if st, _ := f.eng.ProcessState(pi.ID()); st != core.Completed {
		t.Fatalf("process = %v, want Completed", st)
	}
}

func TestOptionalActivityDoesNotBlockCompletion(t *testing.T) {
	f := newFixture(t)
	p := &core.ProcessSchema{
		Name: "WithOptional",
		Activities: []core.ActivityVariable{
			{Name: "Main", Schema: basic("Main", epi())},
			{Name: "Extra", Schema: basic("Extra", epi()), Optional: true},
		},
	}
	f.register(t, p)
	pi, err := f.eng.StartProcess("WithOptional", StartOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Both are entry activities; Extra stays Ready.
	f.run(t, pi.ID(), "Main", "dr.reed")
	if st, _ := f.eng.ProcessState(pi.ID()); st != core.Completed {
		t.Fatalf("process = %v, want Completed", st)
	}
	// The leftover Ready optional was terminated as part of completion.
	extra := f.findActivity(t, pi.ID(), "Extra")
	if extra.State != core.Terminated {
		t.Fatalf("Extra = %v, want Terminated", extra.State)
	}
}

func TestRunningOptionalBlocksCompletion(t *testing.T) {
	f := newFixture(t)
	p := &core.ProcessSchema{
		Name: "WithOptional2",
		Activities: []core.ActivityVariable{
			{Name: "Main", Schema: basic("Main", epi())},
			{Name: "Extra", Schema: basic("Extra", epi()), Optional: true},
		},
	}
	f.register(t, p)
	pi, err := f.eng.StartProcess("WithOptional2", StartOptions{})
	if err != nil {
		t.Fatal(err)
	}
	extra := f.findActivity(t, pi.ID(), "Extra")
	f.mustStart(t, extra.ID, "dr.reed")
	f.run(t, pi.ID(), "Main", "dr.okoye")
	// Extra is Running: the process must wait for it.
	if st, _ := f.eng.ProcessState(pi.ID()); st != core.Running {
		t.Fatalf("process = %v, want Running", st)
	}
	f.mustComplete(t, extra.ID, "dr.reed")
	if st, _ := f.eng.ProcessState(pi.ID()); st != core.Completed {
		t.Fatalf("process = %v, want Completed", st)
	}
}

func TestTerminateProcess(t *testing.T) {
	f := newFixture(t)
	pi := f.startSimple(t)
	f.run(t, pi.ID(), "Plan", "dr.reed")
	iv := f.findActivity(t, pi.ID(), "Interview")
	f.mustStart(t, iv.ID, "dr.okoye")
	if err := f.eng.TerminateProcess(pi.ID(), "dr.reed"); err != nil {
		t.Fatal(err)
	}
	if st, _ := f.eng.ProcessState(pi.ID()); st != core.Terminated {
		t.Fatalf("process = %v", st)
	}
	got, _ := f.eng.Activity(iv.ID)
	if got.State != core.Terminated {
		t.Fatalf("Interview = %v", got.State)
	}
	if err := f.eng.TerminateProcess(pi.ID(), "dr.reed"); err == nil {
		t.Fatal("double terminate accepted")
	}
	if err := f.eng.TerminateProcess("ghost", "x"); err == nil {
		t.Fatal("unknown process accepted")
	}
	// Context retired on termination too.
	ctxID, _ := f.eng.ContextID(pi.ID(), "tfc")
	if _, ok := f.contexts.Get(ctxID); ok {
		t.Fatal("context survived termination")
	}
}

func TestWorklist(t *testing.T) {
	f := newFixture(t)
	pi := f.startSimple(t)
	// Plan is Ready for both epidemiologists, not the intern.
	if wl := f.eng.Worklist("dr.reed"); len(wl) != 1 || wl[0].Var != "Plan" {
		t.Fatalf("reed worklist = %v", wl)
	}
	if wl := f.eng.Worklist("dr.okoye"); len(wl) != 1 {
		t.Fatalf("okoye worklist = %v", wl)
	}
	if wl := f.eng.Worklist("intern"); len(wl) != 0 {
		t.Fatalf("intern worklist = %v", wl)
	}
	plan := f.findActivity(t, pi.ID(), "Plan")
	// After explicit assignment only the assignee sees it.
	if err := f.eng.Assign(plan.ID, "dr.reed"); err != nil {
		t.Fatal(err)
	}
	if wl := f.eng.Worklist("dr.okoye"); len(wl) != 0 {
		t.Fatalf("okoye worklist after assign = %v", wl)
	}
	f.mustStart(t, plan.ID, "dr.reed")
	wl := f.eng.Worklist("dr.reed")
	if len(wl) != 1 || wl[0].State != core.Running {
		t.Fatalf("running worklist = %v", wl)
	}
}

func TestMonitor(t *testing.T) {
	f := newFixture(t)
	pi := f.startSimple(t)
	f.run(t, pi.ID(), "Plan", "dr.reed")
	rows := f.eng.Monitor(pi.ID())
	if len(rows) != 3 { // Plan, Interview, LabTest
		t.Fatalf("monitor rows = %v", rows)
	}
	if rows[0].ProcessSchema != "TaskForce" {
		t.Fatalf("row = %+v", rows[0])
	}
	if got := f.eng.Monitor("ghost"); got != nil {
		t.Fatalf("monitor of unknown process = %v", got)
	}
}

// infoRequestModel builds the Section 5.4 pair: a task force process that
// invokes an information request subprocess, passing TaskForceContext.
func infoRequestModel() *core.ProcessSchema {
	irCtx := &core.ResourceSchema{
		Name: "InfoRequestContext",
		Kind: core.ContextResource,
		Fields: []core.FieldDef{
			{Name: "Requestor", Type: core.FieldRole},
			{Name: "RequestDeadline", Type: core.FieldTime},
		},
	}
	tfCtx := &core.ResourceSchema{
		Name: "TaskForceContext",
		Kind: core.ContextResource,
		Fields: []core.FieldDef{
			{Name: "TaskForceMembers", Type: core.FieldRole},
			{Name: "TaskForceDeadline", Type: core.FieldTime},
		},
	}
	infoRequest := &core.ProcessSchema{
		Name: "InfoRequest",
		ResourceVars: []core.ResourceVariable{
			{Name: "irc", Usage: core.UsageLocal, Schema: irCtx},
			{Name: "tfc", Usage: core.UsageInput, Schema: tfCtx},
		},
		Activities: []core.ActivityVariable{
			{Name: "Gather", Schema: basic("GatherInfo", epi())},
			{Name: "Deliver", Schema: basic("DeliverInfo", epi())},
		},
		Dependencies: []core.Dependency{
			{Type: core.DepSequence, Sources: []string{"Gather"}, Target: "Deliver"},
		},
	}
	return &core.ProcessSchema{
		Name: "TaskForceP",
		ResourceVars: []core.ResourceVariable{
			{Name: "tfc", Usage: core.UsageLocal, Schema: tfCtx},
		},
		Activities: []core.ActivityVariable{
			{Name: "Organize", Schema: basic("Organize", epi())},
			{Name: "RequestInfo", Schema: infoRequest, Optional: true,
				Bind: map[string]string{"tfc": "tfc"}},
			{Name: "Assess", Schema: basic("AssessProgress", epi())},
		},
		Dependencies: []core.Dependency{
			{Type: core.DepSequence, Sources: []string{"Organize"}, Target: "RequestInfo"},
			{Type: core.DepSequence, Sources: []string{"Organize"}, Target: "Assess"},
		},
	}
}

func TestSubprocessInvocation(t *testing.T) {
	f := newFixture(t)
	f.register(t, infoRequestModel())
	pi, err := f.eng.StartProcess("TaskForceP", StartOptions{Initiator: "dr.reed"})
	if err != nil {
		t.Fatal(err)
	}
	f.run(t, pi.ID(), "Organize", "dr.reed")

	req := f.findActivity(t, pi.ID(), "RequestInfo")
	if !req.IsSubprocess {
		t.Fatal("RequestInfo should be a subprocess activity")
	}
	// Completing an unstarted subprocess activity must fail.
	if err := f.eng.Complete(req.ID, "dr.reed"); err == nil {
		t.Fatal("completing unstarted subprocess accepted")
	}
	f.mustStart(t, req.ID, "dr.reed")

	// The subprocess instance shares the activity instance's id.
	child, ok := f.eng.Instance(req.ID)
	if !ok {
		t.Fatal("child process not registered under the activity id")
	}
	if child.Schema().Name != "InfoRequest" {
		t.Fatalf("child schema = %q", child.Schema().Name)
	}
	// The parent's TaskForceContext was bound to the child's input var.
	parentCtx, _ := f.eng.ContextID(pi.ID(), "tfc")
	childCtx, ok := f.eng.ContextID(child.ID(), "tfc")
	if !ok || childCtx != parentCtx {
		t.Fatalf("context binding: parent=%q child=%q", parentCtx, childCtx)
	}
	// And the shared context is associated with both process instances.
	assoc := f.contexts.Associations(parentCtx)
	if len(assoc) != 2 {
		t.Fatalf("shared context associations = %v", assoc)
	}
	// The child created its own InfoRequestContext.
	ircID, ok := f.eng.ContextID(child.ID(), "irc")
	if !ok {
		t.Fatal("child context not created")
	}
	if err := f.contexts.SetField(ircID, "Requestor", core.NewRoleValue("dr.okoye")); err != nil {
		t.Fatal(err)
	}

	// Completing the subprocess directly is rejected.
	if err := f.eng.Complete(req.ID, "dr.reed"); err == nil {
		t.Fatal("direct completion of running subprocess accepted")
	}

	// Drive the child to completion.
	f.run(t, child.ID(), "Gather", "dr.okoye")
	f.run(t, child.ID(), "Deliver", "dr.okoye")
	if st, _ := f.eng.ProcessState(child.ID()); st != core.Completed {
		t.Fatalf("child = %v", st)
	}
	// Parent activity completed with it.
	got, _ := f.eng.Activity(req.ID)
	if got.State != core.Completed {
		t.Fatalf("parent activity = %v", got.State)
	}
	// The child's own context retired; the inherited one did not.
	if _, ok := f.contexts.Get(ircID); ok {
		t.Fatal("child-owned context survived completion")
	}
	if _, ok := f.contexts.Get(parentCtx); !ok {
		t.Fatal("parent-owned context retired by child completion")
	}

	// Finish the parent.
	f.run(t, pi.ID(), "Assess", "dr.reed")
	if st, _ := f.eng.ProcessState(pi.ID()); st != core.Completed {
		t.Fatalf("parent = %v", st)
	}
}

func TestSubprocessEventParameters(t *testing.T) {
	f := newFixture(t)
	f.register(t, infoRequestModel())
	pi, err := f.eng.StartProcess("TaskForceP", StartOptions{Initiator: "dr.reed"})
	if err != nil {
		t.Fatal(err)
	}
	f.run(t, pi.ID(), "Organize", "dr.reed")
	req := f.findActivity(t, pi.ID(), "RequestInfo")
	f.events = nil
	f.mustStart(t, req.ID, "dr.reed")

	// The first event is the activity (= subprocess) going Running; it
	// must carry both the parent linkage and the invoked schema id —
	// exactly what the Translate operator needs.
	var found bool
	for _, ev := range f.events {
		if ev.String(event.PActivityInstanceID) == req.ID &&
			ev.String(event.PActivityProcessSchemaID) == "InfoRequest" &&
			ev.String(event.PParentProcessSchemaID) == "TaskForceP" &&
			ev.String(event.PParentProcessInstanceID) == pi.ID() &&
			ev.String(event.PActivityVariableID) == "RequestInfo" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no subprocess event with full linkage; events: %v", f.events)
	}
}

func TestTerminateSubprocessViaActivity(t *testing.T) {
	f := newFixture(t)
	f.register(t, infoRequestModel())
	pi, err := f.eng.StartProcess("TaskForceP", StartOptions{Initiator: "dr.reed"})
	if err != nil {
		t.Fatal(err)
	}
	f.run(t, pi.ID(), "Organize", "dr.reed")
	req := f.findActivity(t, pi.ID(), "RequestInfo")
	f.mustStart(t, req.ID, "dr.reed")
	if err := f.eng.Terminate(req.ID, "dr.reed"); err != nil {
		t.Fatal(err)
	}
	if st, _ := f.eng.ProcessState(req.ID); st != core.Terminated {
		t.Fatalf("child = %v", st)
	}
	got, _ := f.eng.Activity(req.ID)
	if got.State != core.Terminated {
		t.Fatalf("activity = %v", got.State)
	}
	// RequestInfo is optional, Assess remains; parent still running.
	if st, _ := f.eng.ProcessState(pi.ID()); st != core.Running {
		t.Fatalf("parent = %v", st)
	}
	f.run(t, pi.ID(), "Assess", "dr.okoye")
	if st, _ := f.eng.ProcessState(pi.ID()); st != core.Completed {
		t.Fatalf("parent = %v", st)
	}
}

func TestInputContextRequired(t *testing.T) {
	f := newFixture(t)
	ir := infoRequestModel()
	f.register(t, ir)
	// Starting InfoRequest directly without the input context fails.
	if _, err := f.eng.StartProcess("InfoRequest", StartOptions{}); err == nil {
		t.Fatal("missing input context accepted")
	}
	// Unknown context id fails.
	_, err := f.eng.StartProcess("InfoRequest", StartOptions{
		InputContexts: map[string]string{"tfc": "ctx-ghost"},
	})
	if err == nil {
		t.Fatal("bogus input context accepted")
	}
	// With a real context it starts.
	tfCtx, _ := ir.ContextVar("tfc")
	ctx, err := f.contexts.Create(tfCtx.Schema)
	if err != nil {
		t.Fatal(err)
	}
	pi, err := f.eng.StartProcess("InfoRequest", StartOptions{
		InputContexts: map[string]string{"tfc": ctx.ID()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := f.eng.ProcessState(pi.ID()); st != core.Running {
		t.Fatalf("state = %v", st)
	}
}

func TestEventOrderingMonotone(t *testing.T) {
	f := newFixture(t)
	pi := f.startSimple(t)
	f.run(t, pi.ID(), "Plan", "dr.reed")
	f.run(t, pi.ID(), "Interview", "dr.reed")
	f.run(t, pi.ID(), "LabTest", "dr.reed")
	f.run(t, pi.ID(), "Report", "dr.reed")
	for i := 1; i < len(f.events); i++ {
		if !f.events[i-1].Stamp.Before(f.events[i].Stamp) {
			t.Fatalf("events out of order at %d", i)
		}
	}
	// The last event is the process completing.
	last := f.events[len(f.events)-1]
	if last.String(event.PNewState) != "Completed" ||
		last.String(event.PActivityInstanceID) != pi.ID() {
		t.Fatalf("last event = %#v", last)
	}
}

func TestApplicationSpecificStates(t *testing.T) {
	f := newFixture(t)
	st := core.GenericStateSchema().Clone("investigation")
	if err := st.Refine(core.Running, "Investigating", "AwaitingLab"); err != nil {
		t.Fatal(err)
	}
	if err := st.AddTransition("Investigating", "AwaitingLab"); err != nil {
		t.Fatal(err)
	}
	if err := st.AddTransition("AwaitingLab", "Investigating"); err != nil {
		t.Fatal(err)
	}
	p := &core.ProcessSchema{
		Name: "AppStates",
		Activities: []core.ActivityVariable{
			{Name: "Investigate", Schema: &core.BasicActivitySchema{
				Name: "Investigate", StateSchema: st, PerformerRole: epi(),
			}},
		},
	}
	f.register(t, p)
	pi, err := f.eng.StartProcess("AppStates", StartOptions{})
	if err != nil {
		t.Fatal(err)
	}
	inv := f.findActivity(t, pi.ID(), "Investigate")
	f.mustStart(t, inv.ID, "dr.reed")
	got, _ := f.eng.Activity(inv.ID)
	if got.State != "Investigating" {
		t.Fatalf("state after start = %v, want Investigating (refined)", got.State)
	}
	// Application-specific leaf-to-leaf transition.
	if err := f.eng.Transition(inv.ID, "AwaitingLab", "dr.reed"); err != nil {
		t.Fatal(err)
	}
	if err := f.eng.Transition(inv.ID, "Investigating", "dr.reed"); err != nil {
		t.Fatal(err)
	}
	f.mustComplete(t, inv.ID, "dr.reed")
	if st, _ := f.eng.ProcessState(pi.ID()); st != core.Completed {
		t.Fatalf("process = %v", st)
	}
}

func TestDeadlineFieldOnContext(t *testing.T) {
	f := newFixture(t)
	pi := f.startSimple(t)
	ctxID, _ := f.eng.ContextID(pi.ID(), "tfc")
	deadline := f.clk.Now().Add(72 * time.Hour)
	if err := f.contexts.SetField(ctxID, "TaskForceDeadline", deadline); err != nil {
		t.Fatal(err)
	}
	v, ok := f.contexts.Field(ctxID, "TaskForceDeadline")
	if !ok || !v.(time.Time).Equal(deadline) {
		t.Fatalf("deadline readback = %v, %v", v, ok)
	}
}

func TestInstancesListing(t *testing.T) {
	f := newFixture(t)
	f.startSimple(t)
	if _, err := f.eng.StartProcess("TaskForce", StartOptions{}); err != nil {
		t.Fatal(err)
	}
	ids := f.eng.Instances()
	if len(ids) != 2 || !strings.HasPrefix(ids[0], "p-") {
		t.Fatalf("instances = %v", ids)
	}
	if err := f.eng.TerminateProcess(ids[1], "dr.reed"); err != nil {
		t.Fatal(err)
	}
	want := []ProcessInfo{
		{ID: ids[0], Schema: "TaskForce", State: core.Running},
		{ID: ids[1], Schema: "TaskForce", State: core.Terminated},
	}
	if got := f.eng.ProcessInfos(); !reflect.DeepEqual(got, want) {
		t.Fatalf("ProcessInfos = %v, want %v", got, want)
	}
	if _, ok := f.eng.Instance("ghost"); ok {
		t.Fatal("unknown instance found")
	}
	if _, ok := f.eng.ProcessState("ghost"); ok {
		t.Fatal("unknown process state found")
	}
	if _, ok := f.eng.ContextID("ghost", "tfc"); ok {
		t.Fatal("unknown context binding found")
	}
	if _, ok := f.eng.Activity("ghost"); ok {
		t.Fatal("unknown activity found")
	}
}

func TestCompareValues(t *testing.T) {
	cases := []struct {
		a, b    any
		op      string
		want    bool
		wantErr bool
	}{
		{int64(1), int64(2), "<", true, false},
		{3, 3, "==", true, false},
		{time.Unix(100, 0), time.Unix(200, 0), "<=", true, false},
		{"a", "b", "<", true, false},
		{"a", "a", ">=", true, false},
		{true, true, "==", true, false},
		{true, false, "!=", true, false},
		{true, false, "<", false, true},
		{nil, nil, "==", true, false},
		{nil, "x", "!=", true, false},
		{nil, nil, "<", false, false},
		{int64(1), "x", "==", false, true},
		{"x", 1, "==", false, true},
		{true, "x", "==", false, true},
		{3.5, 3.5, "==", false, true},
		{int64(1), int64(1), "~", false, true},
	}
	for _, c := range cases {
		got, err := compareValues(c.a, c.b, c.op)
		if c.wantErr {
			if err == nil {
				t.Errorf("compare(%v %s %v) succeeded", c.a, c.op, c.b)
			}
			continue
		}
		if err != nil {
			t.Errorf("compare(%v %s %v): %v", c.a, c.op, c.b, err)
			continue
		}
		if got != c.want {
			t.Errorf("compare(%v %s %v) = %v", c.a, c.op, c.b, got)
		}
	}
}

func TestPerformerRoleResolutionErrors(t *testing.T) {
	f := newFixture(t)
	p := &core.ProcessSchema{
		Name: "BadRole",
		Activities: []core.ActivityVariable{
			// An organizational role nobody declared.
			{Name: "A", Schema: basic("A", core.OrgRole("GhostRole"))},
		},
	}
	f.register(t, p)
	pi, err := f.eng.StartProcess("BadRole", StartOptions{})
	if err != nil {
		t.Fatal(err)
	}
	a := f.findActivity(t, pi.ID(), "A")
	// Start with a named user fails: the role cannot be resolved.
	if err := f.eng.Start(a.ID, "dr.reed"); err == nil {
		t.Fatal("unresolvable performer role accepted")
	}
	// An automatic start (no user) bypasses the performer check.
	if err := f.eng.Start(a.ID, ""); err != nil {
		t.Fatal(err)
	}
}

func TestScopedPerformerRole(t *testing.T) {
	f := newFixture(t)
	p := &core.ProcessSchema{
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
	}
	f.register(t, p)
	pi, err := f.eng.StartProcess("ScopedPerf", StartOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctxID, _ := f.eng.ContextID(pi.ID(), "c")
	if err := f.contexts.SetField(ctxID, "Lead", core.NewRoleValue("dr.okoye")); err != nil {
		t.Fatal(err)
	}
	a := f.findActivity(t, pi.ID(), "A")
	if err := f.eng.Start(a.ID, "dr.reed"); err == nil {
		t.Fatal("non-lead allowed to start")
	}
	if err := f.eng.Start(a.ID, "dr.okoye"); err != nil {
		t.Fatal(err)
	}
}

func TestSuspendFromReadyIllegal(t *testing.T) {
	f := newFixture(t)
	pi := f.startSimple(t)
	plan := f.findActivity(t, pi.ID(), "Plan")
	if err := f.eng.Suspend(plan.ID, "dr.reed"); err == nil {
		t.Fatal("suspend from Ready accepted")
	}
	if err := f.eng.Suspend("ghost", "x"); err == nil {
		t.Fatal("suspend of unknown activity accepted")
	}
	if err := f.eng.Resume("ghost", "x"); err == nil {
		t.Fatal("resume of unknown activity accepted")
	}
}

func TestExplicitTransitionFiresDependencies(t *testing.T) {
	f := newFixture(t)
	pi := f.startSimple(t)
	plan := f.findActivity(t, pi.ID(), "Plan")
	f.mustStart(t, plan.ID, "dr.reed")
	// Explicitly transitioning to Completed must behave like Complete:
	// downstream activities become Ready.
	if err := f.eng.Transition(plan.ID, core.Completed, "dr.reed"); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, a := range f.eng.ActivitiesOf(pi.ID()) {
		if a.Var == "Interview" && a.State == core.Ready {
			found = true
		}
	}
	if !found {
		t.Fatal("explicit completion did not fire dependencies")
	}
	// Explicit termination path also runs the completion check.
	iv := f.findActivity(t, pi.ID(), "Interview")
	if err := f.eng.Transition(iv.ID, core.Terminated, "dr.reed"); err != nil {
		t.Fatal(err)
	}
}
