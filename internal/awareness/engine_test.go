package awareness

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/mcc-cmi/cmi/internal/core"
	"github.com/mcc-cmi/cmi/internal/enact"
	"github.com/mcc-cmi/cmi/internal/event"
	"github.com/mcc-cmi/cmi/internal/vclock"
)

// rig wires the full stack: coordination engine + context registry
// feeding an awareness engine whose detections land in sink.
type rig struct {
	clk      *vclock.Virtual
	schemas  *core.SchemaRegistry
	dir      *core.Directory
	contexts *core.Registry
	eng      *enact.Engine
	aware    *Engine

	mu   sync.Mutex
	sink []event.Event
}

func newRig(t *testing.T, opts Options, aschemas ...*Schema) *rig {
	t.Helper()
	r := &rig{
		clk:     vclock.NewVirtual(),
		schemas: core.NewSchemaRegistry(),
		dir:     core.NewDirectory(),
	}
	r.contexts = core.NewRegistry(r.clk)
	r.eng = enact.New(r.clk, r.schemas, r.dir, r.contexts)
	r.aware = NewEngine(event.ConsumerFunc(func(e event.Event) {
		r.mu.Lock()
		r.sink = append(r.sink, e)
		r.mu.Unlock()
	}), opts)
	if err := r.aware.Define(aschemas...); err != nil {
		t.Fatal(err)
	}
	r.eng.Observe(r.aware)
	r.contexts.Observe(r.aware)
	for _, p := range []core.Participant{
		{ID: "leader", Kind: core.Human},
		{ID: "dr.reed", Kind: core.Human},
		{ID: "dr.okoye", Kind: core.Human},
	} {
		if err := r.dir.AddParticipant(p); err != nil {
			t.Fatal(err)
		}
	}
	for _, a := range [][2]string{
		{"CrisisLeader", "leader"},
		{"Epidemiologist", "dr.reed"},
		{"Epidemiologist", "dr.okoye"},
	} {
		if err := r.dir.AssignRole(a[0], a[1]); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

func (r *rig) detected(t *testing.T) []event.Event {
	t.Helper()
	r.aware.Stop()
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]event.Event(nil), r.sink...)
}

func (r *rig) run(t *testing.T, processID, varName, user string) {
	t.Helper()
	var id string
	for _, ai := range r.eng.ActivitiesOf(processID) {
		if ai.Var == varName {
			id = ai.ID
			break
		}
	}
	if id == "" {
		t.Fatalf("no instance of %q in %s", varName, processID)
	}
	if err := r.eng.Start(id, user); err != nil {
		t.Fatal(err)
	}
	if err := r.eng.Complete(id, user); err != nil {
		t.Fatal(err)
	}
}

// section54Model builds the paper's running example: a TaskForce process
// invoking an InfoRequest subprocess, sharing TaskForceContext.
func section54Model() (*core.ProcessSchema, *core.ProcessSchema) {
	tfCtx := &core.ResourceSchema{
		Name: "TaskForceContext",
		Kind: core.ContextResource,
		Fields: []core.FieldDef{
			{Name: "TaskForceMembers", Type: core.FieldRole},
			{Name: "TaskForceDeadline", Type: core.FieldTime},
		},
	}
	irCtx := &core.ResourceSchema{
		Name: "InfoRequestContext",
		Kind: core.ContextResource,
		Fields: []core.FieldDef{
			{Name: "Requestor", Type: core.FieldRole},
			{Name: "RequestDeadline", Type: core.FieldTime},
		},
	}
	infoRequest := &core.ProcessSchema{
		Name: "InfoRequest",
		ResourceVars: []core.ResourceVariable{
			{Name: "irc", Usage: core.UsageLocal, Schema: irCtx},
			{Name: "tfc", Usage: core.UsageInput, Schema: tfCtx},
		},
		Activities: []core.ActivityVariable{
			{Name: "Gather", Schema: &core.BasicActivitySchema{Name: "GatherInfo", PerformerRole: core.OrgRole("Epidemiologist")}},
			{Name: "Deliver", Schema: &core.BasicActivitySchema{Name: "DeliverInfo", PerformerRole: core.OrgRole("Epidemiologist")}},
		},
		Dependencies: []core.Dependency{
			{Type: core.DepSequence, Sources: []string{"Gather"}, Target: "Deliver"},
		},
	}
	taskForce := &core.ProcessSchema{
		Name: "TaskForce",
		ResourceVars: []core.ResourceVariable{
			{Name: "tfc", Usage: core.UsageLocal, Schema: tfCtx},
		},
		Activities: []core.ActivityVariable{
			{Name: "Organize", Schema: &core.BasicActivitySchema{Name: "Organize", PerformerRole: core.OrgRole("CrisisLeader")}},
			{Name: "RequestInfo", Schema: infoRequest, Optional: true, Repeatable: true,
				Bind: map[string]string{"tfc": "tfc"}},
			{Name: "Assess", Schema: &core.BasicActivitySchema{Name: "Assess", PerformerRole: core.OrgRole("Epidemiologist")}},
		},
		Dependencies: []core.Dependency{
			{Type: core.DepSequence, Sources: []string{"Organize"}, Target: "RequestInfo"},
			{Type: core.DepSequence, Sources: []string{"Organize"}, Target: "Assess"},
		},
	}
	return taskForce, infoRequest
}

// deadlineViolationSchema is AS_InfoRequest from Section 5.4:
// (Compare2[InfoRequest, <=](op1, op2), InfoRequestContext.Requestor,
// Identity).
func deadlineViolationSchema(infoRequest *core.ProcessSchema) *Schema {
	return &Schema{
		Name:    "DeadlineViolation",
		Process: infoRequest,
		Description: &Compare2Node{
			Op: "<=",
			Inputs: [2]Node{
				&ContextSource{Context: "TaskForceContext", Field: "TaskForceDeadline"},
				&ContextSource{Context: "InfoRequestContext", Field: "RequestDeadline"},
			},
		},
		DeliveryRole: core.ScopedRole("InfoRequestContext", "Requestor"),
		Assignment:   AssignIdentity,
		Text:         "Task force deadline moved earlier than the information request deadline",
	}
}

// TestSection54DeadlineViolation reproduces the paper's running example
// end to end: moving the task force deadline earlier than an outstanding
// information request's deadline produces exactly one awareness event,
// directed to the scoped Requestor role of the right process instance.
func TestSection54DeadlineViolation(t *testing.T) {
	taskForce, infoRequest := section54Model()
	r := newRig(t, Options{}, deadlineViolationSchema(infoRequest))
	if err := r.schemas.Register(taskForce); err != nil {
		t.Fatal(err)
	}
	if err := r.aware.Start(); err != nil {
		t.Fatal(err)
	}

	pi, err := r.eng.StartProcess("TaskForce", enact.StartOptions{Initiator: "leader"})
	if err != nil {
		t.Fatal(err)
	}
	t0 := r.clk.Now()
	tfcID, _ := r.eng.ContextID(pi.ID(), "tfc")
	// The leader sets the initial task force deadline: +72h.
	if err := r.contexts.SetField(tfcID, "TaskForceDeadline", t0.Add(72*time.Hour)); err != nil {
		t.Fatal(err)
	}
	r.run(t, pi.ID(), "Organize", "leader")

	// dr.reed invokes the information request subprocess.
	var reqID string
	for _, ai := range r.eng.ActivitiesOf(pi.ID()) {
		if ai.Var == "RequestInfo" {
			reqID = ai.ID
		}
	}
	if err := r.eng.Start(reqID, "leader"); err != nil {
		t.Fatal(err)
	}
	ircID, _ := r.eng.ContextID(reqID, "irc")
	if err := r.contexts.SetField(ircID, "Requestor", core.NewRoleValue("dr.reed")); err != nil {
		t.Fatal(err)
	}
	// Request deadline +48h: no violation (72 > 48)... but the task
	// force deadline event predates the subprocess, so op1 has no event
	// for this instance yet. Re-announce it so both sides are seen, as
	// the leader would when briefing the task force.
	if err := r.contexts.SetField(ircID, "RequestDeadline", t0.Add(48*time.Hour)); err != nil {
		t.Fatal(err)
	}
	r.clk.Advance(time.Hour)
	if err := r.contexts.SetField(tfcID, "TaskForceDeadline", t0.Add(72*time.Hour)); err != nil {
		t.Fatal(err)
	}
	// 72 <= 48 is false: nothing detected yet. Now the crisis situation
	// changes and the leader moves the deadline to +24h: violation.
	r.clk.Advance(time.Hour)
	if err := r.contexts.SetField(tfcID, "TaskForceDeadline", t0.Add(24*time.Hour)); err != nil {
		t.Fatal(err)
	}

	got := r.detected(t)
	if len(got) != 1 {
		t.Fatalf("detected %d awareness events, want 1: %v", len(got), got)
	}
	ev := got[0]
	if ev.Type != event.TypeOutput {
		t.Fatalf("type = %v", ev.Type)
	}
	if ev.String(event.PSchemaName) != "DeadlineViolation" {
		t.Fatalf("schema = %q", ev.String(event.PSchemaName))
	}
	if ev.String(event.PProcessSchemaID) != "InfoRequest" || ev.InstanceID() != reqID {
		t.Fatalf("event scoped wrong: %s/%s", ev.String(event.PProcessSchemaID), ev.InstanceID())
	}
	// Resolving the delivery role in the event's scope yields exactly
	// the requestor.
	role := core.RoleRef(ev.String(event.PDeliveryRole))
	users, err := r.contexts.ResolveRole(r.dir, role, event.ProcessRef{
		SchemaID:   ev.String(event.PProcessSchemaID),
		InstanceID: ev.InstanceID(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(users) != 1 || users[0] != "dr.reed" {
		t.Fatalf("delivery users = %v, want [dr.reed]", users)
	}
}

// TestMultiInstanceIsolation runs two concurrent information requests
// with different requestors and deadlines; the violation fires only for
// the instance whose deadline is actually violated.
func TestMultiInstanceIsolation(t *testing.T) {
	taskForce, infoRequest := section54Model()
	r := newRig(t, Options{}, deadlineViolationSchema(infoRequest))
	if err := r.schemas.Register(taskForce); err != nil {
		t.Fatal(err)
	}
	if err := r.aware.Start(); err != nil {
		t.Fatal(err)
	}
	pi, err := r.eng.StartProcess("TaskForce", enact.StartOptions{Initiator: "leader"})
	if err != nil {
		t.Fatal(err)
	}
	t0 := r.clk.Now()
	tfcID, _ := r.eng.ContextID(pi.ID(), "tfc")
	r.run(t, pi.ID(), "Organize", "leader")

	startRequest := func(requestor string, deadline time.Time) string {
		t.Helper()
		var reqID string
		for _, ai := range r.eng.ActivitiesOf(pi.ID()) {
			if ai.Var == "RequestInfo" && ai.State == core.Ready {
				reqID = ai.ID
			}
		}
		if reqID == "" {
			info, err := r.eng.Instantiate(pi.ID(), "RequestInfo", "leader")
			if err != nil {
				t.Fatal(err)
			}
			reqID = info.ID
		}
		if err := r.eng.Start(reqID, "leader"); err != nil {
			t.Fatal(err)
		}
		ircID, _ := r.eng.ContextID(reqID, "irc")
		if err := r.contexts.SetField(ircID, "Requestor", core.NewRoleValue(requestor)); err != nil {
			t.Fatal(err)
		}
		if err := r.contexts.SetField(ircID, "RequestDeadline", deadline); err != nil {
			t.Fatal(err)
		}
		return reqID
	}

	// reed's request is due at +48h, okoye's at +12h.
	reedReq := startRequest("dr.reed", t0.Add(48*time.Hour))
	okoyeReq := startRequest("dr.okoye", t0.Add(12*time.Hour))

	// The leader moves the task force deadline to +24h: this violates
	// reed's request (24 <= 48) but not okoye's (24 <= 12 is false).
	if err := r.contexts.SetField(tfcID, "TaskForceDeadline", t0.Add(24*time.Hour)); err != nil {
		t.Fatal(err)
	}

	got := r.detected(t)
	if len(got) != 1 {
		t.Fatalf("detected %d events, want 1 (instance isolation): %v", len(got), got)
	}
	if got[0].InstanceID() != reedReq {
		t.Fatalf("violation fired for %s, want %s (okoye=%s)", got[0].InstanceID(), reedReq, okoyeReq)
	}
}

// TestAblationReplicationOff demonstrates the E8 failure mode: without
// per-instance replication, the two requests' events mix and a spurious
// violation fires for the wrong instance.
func TestAblationReplicationOff(t *testing.T) {
	taskForce, infoRequest := section54Model()
	r := newRig(t, Options{DisableReplication: true}, deadlineViolationSchema(infoRequest))
	if err := r.schemas.Register(taskForce); err != nil {
		t.Fatal(err)
	}
	if err := r.aware.Start(); err != nil {
		t.Fatal(err)
	}
	pi, err := r.eng.StartProcess("TaskForce", enact.StartOptions{Initiator: "leader"})
	if err != nil {
		t.Fatal(err)
	}
	t0 := r.clk.Now()
	tfcID, _ := r.eng.ContextID(pi.ID(), "tfc")
	r.run(t, pi.ID(), "Organize", "leader")

	var reqID string
	for _, ai := range r.eng.ActivitiesOf(pi.ID()) {
		if ai.Var == "RequestInfo" {
			reqID = ai.ID
		}
	}
	if err := r.eng.Start(reqID, "leader"); err != nil {
		t.Fatal(err)
	}
	ircID, _ := r.eng.ContextID(reqID, "irc")
	if err := r.contexts.SetField(ircID, "Requestor", core.NewRoleValue("dr.reed")); err != nil {
		t.Fatal(err)
	}
	if err := r.contexts.SetField(ircID, "RequestDeadline", t0.Add(12*time.Hour)); err != nil {
		t.Fatal(err)
	}
	info2, err := r.eng.Instantiate(pi.ID(), "RequestInfo", "leader")
	if err != nil {
		t.Fatal(err)
	}
	if err := r.eng.Start(info2.ID, "leader"); err != nil {
		t.Fatal(err)
	}
	irc2, _ := r.eng.ContextID(info2.ID, "irc")
	if err := r.contexts.SetField(irc2, "Requestor", core.NewRoleValue("dr.okoye")); err != nil {
		t.Fatal(err)
	}
	if err := r.contexts.SetField(irc2, "RequestDeadline", t0.Add(48*time.Hour)); err != nil {
		t.Fatal(err)
	}
	// Deadline +24h: violates only the SECOND request (24 <= 48). The
	// shared, unreplicated Compare2 state holds the latest request
	// deadline (48h) regardless of instance, so a correct detector
	// would fire once; the ablated one fires for BOTH instance events
	// of the shared context filter (each canonical copy passes through
	// the shared state).
	if err := r.contexts.SetField(tfcID, "TaskForceDeadline", t0.Add(24*time.Hour)); err != nil {
		t.Fatal(err)
	}
	got := r.detected(t)
	if len(got) <= 1 {
		t.Fatalf("ablation produced %d events; expected spurious extra detections", len(got))
	}
	// And at least one of them names the wrong instance.
	wrong := false
	for _, ev := range got {
		if ev.InstanceID() != info2.ID {
			wrong = true
		}
	}
	if !wrong {
		t.Fatal("ablation did not misattribute any detection")
	}
}

// TestTranslateEndToEnd: awareness in the parent process about the
// completion of subprocess work, via the process invocation operator.
func TestTranslateEndToEnd(t *testing.T) {
	taskForce, infoRequest := section54Model()
	_ = infoRequest
	// Notify the crisis leader when an information request delivers.
	schema := &Schema{
		Name:    "InfoDelivered",
		Process: taskForce,
		Description: &TranslateNode{
			Av: "RequestInfo",
			Input: &ActivitySource{
				Av:  "Deliver",
				New: []core.State{core.Completed},
			},
		},
		DeliveryRole: core.OrgRole("CrisisLeader"),
		Text:         "An information request has delivered its results",
	}
	r := newRig(t, Options{}, schema)
	if err := r.schemas.Register(taskForce); err != nil {
		t.Fatal(err)
	}
	if err := r.aware.Start(); err != nil {
		t.Fatal(err)
	}
	pi, err := r.eng.StartProcess("TaskForce", enact.StartOptions{Initiator: "leader"})
	if err != nil {
		t.Fatal(err)
	}
	r.run(t, pi.ID(), "Organize", "leader")
	var reqID string
	for _, ai := range r.eng.ActivitiesOf(pi.ID()) {
		if ai.Var == "RequestInfo" {
			reqID = ai.ID
		}
	}
	if err := r.eng.Start(reqID, "leader"); err != nil {
		t.Fatal(err)
	}
	r.run(t, reqID, "Gather", "dr.reed")
	r.run(t, reqID, "Deliver", "dr.reed")

	got := r.detected(t)
	if len(got) != 1 {
		t.Fatalf("detected %d events, want 1: %v", len(got), got)
	}
	ev := got[0]
	// The detection is translated into the PARENT's scope.
	if ev.String(event.PProcessSchemaID) != "TaskForce" || ev.InstanceID() != pi.ID() {
		t.Fatalf("translated scope = %s/%s, want TaskForce/%s",
			ev.String(event.PProcessSchemaID), ev.InstanceID(), pi.ID())
	}
}

func TestEngineLifecycle(t *testing.T) {
	_, infoRequest := section54Model()
	r := newRig(t, Options{}, deadlineViolationSchema(infoRequest))
	if err := r.aware.Start(); err != nil {
		t.Fatal(err)
	}
	if err := r.aware.Start(); err == nil {
		t.Fatal("double start accepted")
	}
	if err := r.aware.Define(deadlineViolationSchema(infoRequest)); err == nil {
		t.Fatal("define while running accepted")
	}
	names := r.aware.Schemas()
	if len(names) != 1 || names[0] != "DeadlineViolation" {
		t.Fatalf("schemas = %v", names)
	}
	r.aware.Stop()
	r.aware.Stop() // idempotent
	if stats := r.aware.Stats(); len(stats.Nodes) == 0 {
		t.Fatal("no stats after run")
	}
}

func TestEngineRequiresSchemas(t *testing.T) {
	e := NewEngine(event.ConsumerFunc(func(event.Event) {}), Options{})
	if err := e.Start(); err == nil {
		t.Fatal("start without schemas accepted")
	}
	if nodes := e.Stats().Nodes; nodes != nil {
		t.Fatal("node stats before start should be nil")
	}
	// Consume before start must not panic — and must be counted.
	e.Consume(event.New(event.TypeActivity, vclock.NewVirtual().Next(), "x", nil))
	if e.Dropped() != 1 {
		t.Fatalf("dropped = %d, want 1", e.Dropped())
	}
	if st := e.Stats(); st.Dropped != 1 {
		t.Fatalf("stats dropped = %d, want 1", st.Dropped)
	}
}

func TestSchemaValidation(t *testing.T) {
	_, infoRequest := section54Model()
	good := deadlineViolationSchema(infoRequest)
	cases := []struct {
		name   string
		mutate func(*Schema)
	}{
		{"no name", func(s *Schema) { s.Name = "" }},
		{"no process", func(s *Schema) { s.Process = nil }},
		{"no description", func(s *Schema) { s.Description = nil }},
		{"bad role", func(s *Schema) { s.DeliveryRole = "bogus" }},
	}
	for _, c := range cases {
		s := *good
		c.mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: validated", c.name)
		}
	}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCompileErrors(t *testing.T) {
	_, infoRequest := section54Model()
	sinkFn := event.ConsumerFunc(func(event.Event) {})
	mk := func(d Node) *Schema {
		return &Schema{
			Name:         "X",
			Process:      infoRequest,
			Description:  d,
			DeliveryRole: core.OrgRole("CrisisLeader"),
		}
	}
	bad := []Node{
		&ActivitySource{Av: "Ghost"},
		&ContextSource{Context: "Nope", Field: "F"},
		&AndNode{Copy: 1, Inputs: []Node{&ContextSource{Context: "InfoRequestContext", Field: "RequestDeadline"}}},
		&AndNode{Copy: 1, Inputs: []Node{nil, nil}},
		&Compare1Node{Op: "~", Operand: 1, Input: &ContextSource{Context: "InfoRequestContext", Field: "RequestDeadline"}},
		&Compare2Node{Op: "~", Inputs: [2]Node{
			&ContextSource{Context: "InfoRequestContext", Field: "RequestDeadline"},
			&ContextSource{Context: "InfoRequestContext", Field: "RequestDeadline"},
		}},
		&TranslateNode{Av: "Gather", Input: &ActivitySource{Av: "Gather"}},
	}
	for i, d := range bad {
		if _, err := Compile([]*Schema{mk(d)}, true, sinkFn); err == nil {
			t.Errorf("bad description %d compiled", i)
		}
	}
	if _, err := Compile(nil, true, sinkFn); err == nil {
		t.Fatal("empty schema set compiled")
	}
}

func TestSharedNodesCompileOnce(t *testing.T) {
	_, infoRequest := section54Model()
	shared := &ContextSource{Context: "InfoRequestContext", Field: "RequestDeadline"}
	s1 := &Schema{
		Name: "S1", Process: infoRequest,
		Description:  &CountNode{Input: shared},
		DeliveryRole: core.OrgRole("CrisisLeader"),
	}
	s2 := &Schema{
		Name: "S2", Process: infoRequest,
		Description:  &Compare1Node{Op: ">", Operand: 0, Input: shared},
		DeliveryRole: core.OrgRole("CrisisLeader"),
	}
	g, err := Compile([]*Schema{s1, s2}, true, event.ConsumerFunc(func(event.Event) {}))
	if err != nil {
		t.Fatal(err)
	}
	// Nodes: 1 shared filter + Count + Compare1 + 2 Output = 5.
	if g.NumNodes() != 5 {
		t.Fatalf("NumNodes = %d, want 5 (shared leaf compiled once)", g.NumNodes())
	}
}

func TestAssignments(t *testing.T) {
	id, ok := LookupAssignment(AssignIdentity)
	if !ok {
		t.Fatal("identity missing")
	}
	if got := id([]string{"a", "b"}, event.Event{}); len(got) != 2 {
		t.Fatalf("identity = %v", got)
	}
	first, ok := LookupAssignment(AssignFirst)
	if !ok {
		t.Fatal("first missing")
	}
	if got := first([]string{"a", "b"}, event.Event{}); len(got) != 1 || got[0] != "a" {
		t.Fatalf("first = %v", got)
	}
	if got := first(nil, event.Event{}); got != nil {
		t.Fatalf("first(nil) = %v", got)
	}
	if err := RegisterAssignment("", nil); err == nil {
		t.Fatal("empty registration accepted")
	}
	if err := RegisterAssignment("evens", func(u []string, _ event.Event) []string {
		var out []string
		for i, x := range u {
			if i%2 == 0 {
				out = append(out, x)
			}
		}
		return out
	}); err != nil {
		t.Fatal(err)
	}
	if _, ok := LookupAssignment("evens"); !ok {
		t.Fatal("registered assignment missing")
	}
}

// workProcess is a minimal schema for driving the engine directly: one
// repeatable work activity.
func workProcess(t *testing.T) *core.ProcessSchema {
	t.Helper()
	p := &core.ProcessSchema{
		Name: "WorkProc",
		Activities: []core.ActivityVariable{
			{Name: "Work", Repeatable: true,
				Schema: &core.BasicActivitySchema{Name: "WorkStep", PerformerRole: core.OrgRole("R")}},
		},
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

func workEvent(clk vclock.Clock, inst string, round int) event.Event {
	return event.NewActivity(clk.Next(), "test", event.ActivityChange{
		ActivityInstanceID:      fmt.Sprintf("%s/Work-%d", inst, round),
		ParentProcessSchemaID:   "WorkProc",
		ParentProcessInstanceID: inst,
		ActivityVariableID:      "Work",
		OldState:                string(core.Ready),
		NewState:                string(core.Running),
	})
}

// TestInterleavedInstancesCountInOrder drives the engine with a
// round-robin interleaving of many instances through a per-instance
// Count: replicated operator state must keep every instance's running
// count strictly 1..N in submission order, with nothing dropped.
func TestInterleavedInstancesCountInOrder(t *testing.T) {
	const instances, perInstance = 32, 20
	var got []event.Event
	eng := NewEngine(event.ConsumerFunc(func(ev event.Event) { got = append(got, ev) }), Options{})
	if err := eng.Define(&Schema{
		Name:         "WorkSeen",
		Process:      workProcess(t),
		Description:  &CountNode{Input: &ActivitySource{Av: "Work", New: []core.State{core.Running}}},
		DeliveryRole: core.OrgRole("R"),
		Text:         "work started",
	}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	clk := vclock.NewVirtual()
	for round := 0; round < perInstance; round++ {
		for i := 0; i < instances; i++ {
			eng.Consume(workEvent(clk, fmt.Sprintf("pi-%d", i), round))
		}
	}
	eng.Stop()

	if len(got) != instances*perInstance {
		t.Fatalf("detections = %d, want %d", len(got), instances*perInstance)
	}
	lastN := map[string]int64{}
	for _, ev := range got {
		n, _ := ev.Int64(event.PIntInfo)
		if n != lastN[ev.InstanceID()]+1 {
			t.Fatalf("instance %s: count %d after %d — per-instance order lost", ev.InstanceID(), n, lastN[ev.InstanceID()])
		}
		lastN[ev.InstanceID()] = n
	}
	if d := eng.Dropped(); d != 0 {
		t.Fatalf("dropped = %d, want 0", d)
	}
}
