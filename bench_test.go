// Benchmarks regenerating the paper's figures and reported numbers — one
// bench per experiment in DESIGN.md's index. Absolute times are
// machine-local; EXPERIMENTS.md records the shapes that must hold.
package cmi_test

import (
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	cmi "github.com/mcc-cmi/cmi"
	"github.com/mcc-cmi/cmi/internal/audit"
	"github.com/mcc-cmi/cmi/internal/awareness"
	"github.com/mcc-cmi/cmi/internal/cedmos"
	"github.com/mcc-cmi/cmi/internal/core"
	"github.com/mcc-cmi/cmi/internal/crisis"
	"github.com/mcc-cmi/cmi/internal/delivery"
	"github.com/mcc-cmi/cmi/internal/event"
	"github.com/mcc-cmi/cmi/internal/federation"
	"github.com/mcc-cmi/cmi/internal/monitor"
	"github.com/mcc-cmi/cmi/internal/pubsub"
	"github.com/mcc-cmi/cmi/internal/service"
	"github.com/mcc-cmi/cmi/internal/vclock"
	"github.com/mcc-cmi/cmi/internal/wfms"
)

// BenchmarkFig1CrisisTimeline runs the full Figure 1 crisis information
// gathering scenario — 100 activity events, four task forces, awareness
// detection and delivery — per iteration.
func BenchmarkFig1CrisisTimeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := crisis.RunFigure1()
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) < 20 {
			b.Fatal("timeline degenerated")
		}
	}
}

// BenchmarkFig4StateTransitions measures raw activity state transitions
// through the coordination engine (the Figure 4 state schema in motion).
func BenchmarkFig4StateTransitions(b *testing.B) {
	clk := vclock.NewVirtual()
	sys, err := cmi.New(cmi.Config{Clock: clk})
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	p := &cmi.ProcessSchema{
		Name: "Bench",
		Activities: []cmi.ActivityVariable{
			// Keep never completes, so the process stays Running and
			// accepts new W instances for the whole benchmark. It is
			// listed first so the completion check exits in O(1).
			{Name: "Keep", Schema: &cmi.BasicActivitySchema{Name: "Keep"}},
			{Name: "W", Schema: &cmi.BasicActivitySchema{Name: "W"}, Repeatable: true},
		},
	}
	if err := sys.RegisterProcess(p); err != nil {
		b.Fatal(err)
	}
	if err := sys.Start(); err != nil {
		b.Fatal(err)
	}
	pi, err := sys.StartProcess("Bench", "")
	if err != nil {
		b.Fatal(err)
	}
	co := sys.Coordination()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ai, err := co.Instantiate(pi.ID(), "W", "")
		if err != nil {
			b.Fatal(err)
		}
		if err := co.Start(ai.ID, ""); err != nil {
			b.Fatal(err)
		}
		if err := co.Complete(ai.ID, ""); err != nil {
			b.Fatal(err)
		}
	}
}

// sec54Rig builds the Section 5.4 system with one outstanding request.
func sec54Rig(b *testing.B) (*cmi.System, *vclock.Virtual, string, string) {
	b.Helper()
	clk := vclock.NewVirtual()
	sys, err := cmi.New(cmi.Config{Clock: clk})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { sys.Close() })
	model, err := crisis.NewModel()
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.RegisterProcess(model.TaskForce); err != nil {
		b.Fatal(err)
	}
	if err := sys.DefineAwareness(model.Awareness[0]); err != nil {
		b.Fatal(err)
	}
	staff, err := crisis.SeedStaff(sys, 2)
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.Start(); err != nil {
		b.Fatal(err)
	}
	pi, err := sys.StartProcess("TaskForce", staff.Leader)
	if err != nil {
		b.Fatal(err)
	}
	co := sys.Coordination()
	var organize string
	for _, ai := range co.ActivitiesOf(pi.ID()) {
		organize = ai.ID
	}
	if err := co.Start(organize, staff.Leader); err != nil {
		b.Fatal(err)
	}
	if err := co.Complete(organize, staff.Leader); err != nil {
		b.Fatal(err)
	}
	var reqID string
	for _, ai := range co.ActivitiesOf(pi.ID()) {
		if ai.Var == "RequestInfo" {
			reqID = ai.ID
		}
	}
	if err := co.Start(reqID, staff.Leader); err != nil {
		b.Fatal(err)
	}
	if err := sys.SetScopedRole(reqID, "irc", "Requestor", staff.Epidemiologists[0]); err != nil {
		b.Fatal(err)
	}
	if err := sys.SetContextField(reqID, "irc", "RequestDeadline", clk.Now().Add(48*time.Hour)); err != nil {
		b.Fatal(err)
	}
	return sys, clk, pi.ID(), reqID
}

// BenchmarkSec54DeadlineViolation measures one full awareness round per
// iteration: a context field change, composite detection through the
// Compare2 DAG, scoped-role resolution, and persistent delivery.
func BenchmarkSec54DeadlineViolation(b *testing.B) {
	sys, clk, piID, _ := sec54Rig(b)
	t0 := clk.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Violating value, distinct per iteration.
		v := t0.Add(time.Duration(i%24) * time.Minute)
		if err := sys.SetContextField(piID, "tfc", "TaskForceDeadline", v); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	delivered, undeliverable, _ := sys.DeliveryAgent().Stats()
	if delivered == 0 || undeliverable != 0 {
		b.Fatalf("delivery stats = %d, %d", delivered, undeliverable)
	}
}

// BenchmarkFig5FederationRoundTrip measures one HTTP worklist round trip
// through the federation server.
func BenchmarkFig5FederationRoundTrip(b *testing.B) {
	sys, err := cmi.New(cmi.Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	p := &cmi.ProcessSchema{
		Name: "F",
		Activities: []cmi.ActivityVariable{
			{Name: "W", Schema: &cmi.BasicActivitySchema{Name: "W", PerformerRole: cmi.OrgRole("R")}},
		},
	}
	if err := sys.RegisterProcess(p); err != nil {
		b.Fatal(err)
	}
	if err := sys.AddHuman("u", "U"); err != nil {
		b.Fatal(err)
	}
	if err := sys.AssignRole("R", "u"); err != nil {
		b.Fatal(err)
	}
	if err := sys.Start(); err != nil {
		b.Fatal(err)
	}
	if _, err := sys.StartProcess("F", "u"); err != nil {
		b.Fatal(err)
	}
	srv := httptest.NewServer(federation.NewServer(sys).Handler())
	defer srv.Close()
	pc := federation.NewParticipantClient(srv.URL, "u", srv.Client())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		items, err := pc.Worklist()
		if err != nil {
			b.Fatal(err)
		}
		if len(items) != 1 {
			b.Fatal("worklist changed")
		}
	}
}

// BenchmarkSec7DeploymentScale measures building and measuring the
// nine-process deployment, including full CMM -> WfMS translation.
func BenchmarkSec7DeploymentScale(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d, err := crisis.NewDeployment()
		if err != nil {
			b.Fatal(err)
		}
		inv, err := d.Inventory()
		if err != nil {
			b.Fatal(err)
		}
		if inv.Processes != 9 || inv.CMMActivities <= 50 {
			b.Fatal("deployment degenerated")
		}
	}
}

// BenchmarkSec7Translation isolates the CMM -> WfMS translation of the
// information gathering process tree.
func BenchmarkSec7Translation(b *testing.B) {
	model, err := crisis.NewModel()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		defs, err := wfms.Translate(model.InformationGathering, wfms.TranslateOptions{RepeatWidth: 2})
		if err != nil {
			b.Fatal(err)
		}
		if len(defs) != 3 {
			b.Fatal("translation degenerated")
		}
	}
}

// BenchmarkOverload runs the E7 scenario (all three awareness approaches
// at once) at the default scale per iteration.
func BenchmarkOverload(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := crisis.RunOverload(crisis.DefaultOverloadConfig())
		if err != nil {
			b.Fatal(err)
		}
		if res.CMI.Precision() != 1 {
			b.Fatal("CMI precision degenerated")
		}
	}
}

// The E7 per-event costs of the three approaches, on identical raw
// events.

func benchEvents(n int) []event.Event {
	clk := vclock.NewVirtual()
	evs := make([]event.Event, n)
	for i := range evs {
		evs[i] = event.NewActivity(clk.Next(), "bench", event.ActivityChange{
			ActivityInstanceID:      fmt.Sprintf("a-%d", i),
			ParentProcessSchemaID:   "P",
			ParentProcessInstanceID: fmt.Sprintf("p-%d", i%16),
			User:                    fmt.Sprintf("u-%d", i%8),
			ActivityVariableID:      "W",
			OldState:                "Ready",
			NewState:                "Running",
		})
	}
	return evs
}

// BenchmarkOverloadPathMonitor measures the WfMS-monitoring baseline's
// per-event fan-out.
func BenchmarkOverloadPathMonitor(b *testing.B) {
	m := monitor.New(nil)
	for i := 0; i < 8; i++ {
		m.AddWorker(fmt.Sprintf("u-%d", i))
	}
	m.AddManager("boss")
	evs := benchEvents(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Consume(evs[i%len(evs)])
	}
}

// BenchmarkOverloadPathPubSub measures the Elvin-style broker's per-event
// matching cost with 64 content subscriptions.
func BenchmarkOverloadPathPubSub(b *testing.B) {
	br := pubsub.NewBroker()
	for i := 0; i < 64; i++ {
		_, err := br.Subscribe(fmt.Sprintf("s-%d", i), pubsub.All{
			pubsub.Cmp{Field: event.PParentProcessInstanceID, Op: "==", Value: fmt.Sprintf("p-%d", i%16)},
			pubsub.Cmp{Field: event.PNewState, Op: "==", Value: "Running"},
		}, func(pubsub.Notification) {})
		if err != nil {
			b.Fatal(err)
		}
	}
	evs := benchEvents(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br.Notify(pubsub.FromEvent(evs[i%len(evs)]))
	}
}

// BenchmarkOverloadPathCMI measures the awareness engine's per-event cost
// with an activity-filter schema over the same stream.
func BenchmarkOverloadPathCMI(b *testing.B) {
	p := &core.ProcessSchema{
		Name: "P",
		Activities: []core.ActivityVariable{
			{Name: "W", Schema: &core.BasicActivitySchema{Name: "W"}},
		},
	}
	if err := p.Validate(); err != nil {
		b.Fatal(err)
	}
	// Build the detection graph directly (no delivery) to isolate the
	// event-processing path.
	graph, err := compileActivityFilter(p, event.ConsumerFunc(func(event.Event) {}))
	if err != nil {
		b.Fatal(err)
	}
	evs := benchEvents(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := graph.InjectEvent(evs[i%len(evs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationReplication compares awareness processing with
// per-instance replication on vs off over a 1000-instance event stream.
func BenchmarkAblationReplication(b *testing.B) {
	for _, replicate := range []bool{true, false} {
		name := "on"
		if !replicate {
			name = "off"
		}
		b.Run("replication="+name, func(b *testing.B) {
			p := &core.ProcessSchema{
				Name: "P",
				ResourceVars: []core.ResourceVariable{
					{Name: "c", Usage: core.UsageLocal, Schema: &core.ResourceSchema{
						Name: "C", Kind: core.ContextResource,
						Fields: []core.FieldDef{{Name: "N", Type: core.FieldInt}},
					}},
				},
				Activities: []core.ActivityVariable{
					{Name: "W", Schema: &core.BasicActivitySchema{Name: "W"}},
				},
			}
			if err := p.Validate(); err != nil {
				b.Fatal(err)
			}
			clk := vclock.NewVirtual()
			count := 0
			graph, err := compileCompare2(p, replicate, func() { count++ })
			if err != nil {
				b.Fatal(err)
			}
			const instances = 1000
			evs := make([]event.Event, instances)
			for i := range evs {
				evs[i] = event.NewContext(clk.Next(), "bench", event.ContextChange{
					ContextID:   "ctx-1",
					ContextName: "C",
					Processes: []event.ProcessRef{
						{SchemaID: "P", InstanceID: fmt.Sprintf("p-%d", i%instances)},
					},
					FieldName:     "N",
					NewFieldValue: int64(i),
				})
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := graph.InjectEvent(evs[i%len(evs)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScopedRoleChurn measures dynamic role lifecycle: create a
// context, populate its role field, resolve it in scope, retire it (E9).
func BenchmarkScopedRoleChurn(b *testing.B) {
	clk := vclock.NewVirtual()
	reg := core.NewRegistry(clk)
	dir := core.NewDirectory()
	for i := 0; i < 8; i++ {
		if err := dir.AddParticipant(core.Participant{ID: fmt.Sprintf("u-%d", i)}); err != nil {
			b.Fatal(err)
		}
	}
	schema := crisis.TaskForceContextSchema()
	coreSchema := &core.ResourceSchema{Name: schema.Name, Kind: core.ContextResource}
	for _, f := range schema.Fields {
		coreSchema.Fields = append(coreSchema.Fields, core.FieldDef{Name: f.Name, Type: f.Type})
	}
	ref := core.ScopedRole("TaskForceContext", "TaskForceLeader")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scope := event.ProcessRef{SchemaID: "TF", InstanceID: fmt.Sprintf("p-%d", i)}
		ctx, err := reg.Create(coreSchema, scope)
		if err != nil {
			b.Fatal(err)
		}
		if err := reg.SetField(ctx.ID(), "TaskForceLeader", core.NewRoleValue(fmt.Sprintf("u-%d", i%8))); err != nil {
			b.Fatal(err)
		}
		users, err := reg.ResolveRole(dir, ref, scope)
		if err != nil || len(users) != 1 {
			b.Fatalf("resolve = %v, %v", users, err)
		}
		if err := reg.Retire(ctx.ID()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOrgRoleResolution is the E9 comparison point: resolving a
// global organizational role.
func BenchmarkOrgRoleResolution(b *testing.B) {
	dir := core.NewDirectory()
	for i := 0; i < 64; i++ {
		id := fmt.Sprintf("u-%d", i)
		if err := dir.AddParticipant(core.Participant{ID: id}); err != nil {
			b.Fatal(err)
		}
		if err := dir.AssignRole("Epidemiologist", id); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		users, err := dir.ResolveOrg("Epidemiologist")
		if err != nil || len(users) != 64 {
			b.Fatal("resolution degenerated")
		}
	}
}

// BenchmarkDeliveryQueue measures persistent enqueue + ack (E10).
func BenchmarkDeliveryQueue(b *testing.B) {
	store, err := delivery.NewStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	n := delivery.Notification{
		Schema:      "Bench",
		Description: "benchmark notification",
		Time:        time.Unix(0, 0),
		Params:      map[string]any{"k": "v", "n": int64(42)},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := store.Enqueue("bench-user", n)
		if err != nil {
			b.Fatal(err)
		}
		if err := store.Ack("bench-user", got.ID); err != nil {
			b.Fatal(err)
		}
	}
}

// benchmarkDeliveryFanout measures one EnqueueFanout call per iteration
// at the given fan-out width: the notification body is marshaled once
// and journaled through each queue's commit group.
func benchmarkDeliveryFanout(b *testing.B, width int) {
	store, err := delivery.NewStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	users := make([]string, width)
	for i := range users {
		users[i] = fmt.Sprintf("bench-user-%d", i)
	}
	n := delivery.Notification{
		Schema:      "Bench",
		Description: "benchmark notification",
		Time:        time.Unix(0, 0),
		Params:      map[string]any{"k": "v", "n": int64(42)},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := store.EnqueueFanout(users, "", n); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDeliveryFanout1(b *testing.B) { benchmarkDeliveryFanout(b, 1) }
func BenchmarkDeliveryFanout4(b *testing.B) { benchmarkDeliveryFanout(b, 4) }
func BenchmarkDeliveryFanout8(b *testing.B) { benchmarkDeliveryFanout(b, 8) }

// BenchmarkWfMSEngine measures the WfMS substrate's own token flow: one
// two-node instance per iteration.
func BenchmarkWfMSEngine(b *testing.B) {
	e := wfms.NewEngine()
	def := &wfms.ProcessDef{
		Name: "B",
		Nodes: []wfms.Node{
			{Name: "a", Kind: wfms.WorkNode, Role: "r"},
			{Name: "b", Kind: wfms.WorkNode, Role: "r"},
		},
		Connectors: []wfms.Connector{{From: "a", To: "b"}},
	}
	if err := e.Define(def); err != nil {
		b.Fatal(err)
	}
	e.AddStaff("r", "u")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id, err := e.Start("B")
		if err != nil {
			b.Fatal(err)
		}
		for _, node := range []string{"a", "b"} {
			if err := e.Claim(id, node, "u"); err != nil {
				b.Fatal(err)
			}
			if err := e.Finish(id, node, "u"); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// ----- bench helpers -----

// compileActivityFilter builds a minimal detection graph: one activity
// filter feeding an output operator.
func compileActivityFilter(p *core.ProcessSchema, sink event.Consumer) (*cedmos.Graph, error) {
	s := &awareness.Schema{
		Name:         "bench",
		Process:      p,
		Description:  &awareness.ActivitySource{Av: "W", New: []core.State{core.Running}},
		DeliveryRole: core.OrgRole("R"),
	}
	return awareness.Compile([]*awareness.Schema{s}, true, sink)
}

// compileCompare2 builds the Section 5.4-shaped Compare2 DAG over a
// shared context source, with replication configurable (E8 ablation).
func compileCompare2(p *core.ProcessSchema, replicate bool, onDetect func()) (*cedmos.Graph, error) {
	src := &awareness.ContextSource{Context: "C", Field: "N"}
	s := &awareness.Schema{
		Name:         "bench",
		Process:      p,
		Description:  &awareness.Compare2Node{Op: "<=", Inputs: [2]awareness.Node{src, src}},
		DeliveryRole: core.OrgRole("R"),
	}
	return awareness.Compile([]*awareness.Schema{s}, replicate,
		event.ConsumerFunc(func(event.Event) { onDetect() }))
}

// BenchmarkServiceSelection measures quality-based service selection
// over a populated registry (Service Model).
func BenchmarkServiceSelection(b *testing.B) {
	reg := service.NewRegistry()
	for i := 0; i < 128; i++ {
		svc := &service.Service{
			Name:     fmt.Sprintf("svc-%03d", i),
			Provider: fmt.Sprintf("org-%d", i%8),
			Schema: &core.ProcessSchema{
				Name: fmt.Sprintf("SvcProc%03d", i),
				Activities: []core.ActivityVariable{
					{Name: "W", Schema: &core.BasicActivitySchema{Name: fmt.Sprintf("SvcProc%03d/W", i)}},
				},
			},
			Quality: service.Quality{
				MaxDuration: time.Duration(1+i%48) * time.Hour,
				Cost:        int64(50 + (i*37)%500),
				Reliability: 0.80 + float64(i%20)/100,
			},
		}
		if err := reg.Register(svc); err != nil {
			b.Fatal(err)
		}
	}
	req := service.Requirements{MaxDuration: 24 * time.Hour, MaxCost: 400, MinReliability: 0.9}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := reg.Select(req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAuditRecord measures durable event journaling.
func BenchmarkAuditRecord(b *testing.B) {
	rec, err := audit.NewRecorder(b.TempDir() + "/bench.jsonl")
	if err != nil {
		b.Fatal(err)
	}
	defer rec.Close()
	evs := benchEvents(256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Consume(evs[i%len(evs)])
	}
	b.StopTimer()
	recorded, failed := rec.Stats()
	if recorded != uint64(b.N) || failed != 0 {
		b.Fatalf("stats = %d, %d", recorded, failed)
	}
}
