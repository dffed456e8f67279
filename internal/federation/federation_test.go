package federation

import (
	"net/http/httptest"
	"testing"
	"time"

	"github.com/mcc-cmi/cmi/internal/core"
	"github.com/mcc-cmi/cmi/internal/delivery"
	"github.com/mcc-cmi/cmi/internal/system"
	"github.com/mcc-cmi/cmi/internal/vclock"
)

const testSpec = `
contextschema TaskForceContext {
    role TaskForceMembers
    time TaskForceDeadline
}
contextschema InfoRequestContext {
    role Requestor
    time RequestDeadline
}
process InfoRequest {
    context irc InfoRequestContext
    input context tfc TaskForceContext
    activity Gather role org Epidemiologist
    activity Deliver role org Epidemiologist
    seq Gather -> Deliver
}
process TaskForce {
    context tfc TaskForceContext
    activity Organize role org CrisisLeader
    subprocess RequestInfo InfoRequest optional repeatable bind (tfc = tfc)
    activity Assess role org Epidemiologist
    seq Organize -> RequestInfo
    seq Organize -> Assess
}
awareness DeadlineViolation on InfoRequest {
    op1 = context TaskForceContext.TaskForceDeadline
    op2 = context InfoRequestContext.RequestDeadline
    root = compare2 "<=" (op1, op2)
    deliver scoped InfoRequestContext.Requestor
    describe "deadline moved"
}
`

type rig struct {
	sys      *system.System
	clk      *vclock.Virtual
	srv      *httptest.Server
	designer *DesignerClient
}

func newRig(t *testing.T) *rig {
	t.Helper()
	clk := vclock.NewVirtual()
	sys, err := system.New(system.Config{Clock: clk, StateDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(sys).Handler())
	t.Cleanup(func() {
		srv.Close()
		sys.Close()
	})
	return &rig{
		sys:      sys,
		clk:      clk,
		srv:      srv,
		designer: NewDesignerClient(srv.URL, srv.Client()),
	}
}

func (r *rig) participant(id string) *ParticipantClient {
	return NewParticipantClient(r.srv.URL, id, r.srv.Client())
}

// waitNotifications polls until the participant has n pending
// notifications (the awareness engine is asynchronous) or times out.
func waitNotifications(t *testing.T, pc *ParticipantClient, n int) []delivery.Notification {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		got, err := pc.Notifications()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) >= n {
			return got
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d notifications; have %d", n, len(got))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFederationEndToEnd drives the Section 5.4 scenario through the
// HTTP API alone: designer uploads the spec and staffs the directory,
// participants work through their clients, and the requestor's viewer
// receives the deadline-violation notification.
func TestFederationEndToEnd(t *testing.T) {
	r := newRig(t)
	d := r.designer

	resp, err := d.LoadSpec(testSpec)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Processes) != 2 || len(resp.Awareness) != 1 {
		t.Fatalf("spec response = %+v", resp)
	}
	for _, p := range [][3]string{
		{"leader", "The Leader", "human"},
		{"dr.reed", "Dr Reed", "human"},
		{"lab-bot", "Lab Bot", "program"},
	} {
		if err := d.AddParticipant(p[0], p[1], p[2]); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.AssignRole("CrisisLeader", "leader"); err != nil {
		t.Fatal(err)
	}
	if err := d.AssignRole("Epidemiologist", "dr.reed"); err != nil {
		t.Fatal(err)
	}
	schemas, err := d.Schemas()
	if err != nil {
		t.Fatal(err)
	}
	if len(schemas) == 0 {
		t.Fatal("no schemas listed")
	}
	if err := d.StartSystem(); err != nil {
		t.Fatal(err)
	}
	// Build-time endpoints close after start.
	if _, err := d.LoadSpec(testSpec); err == nil {
		t.Fatal("spec accepted after start")
	}
	if err := d.StartSystem(); err == nil {
		t.Fatal("double start accepted")
	}

	leader := r.participant("leader")
	reed := r.participant("dr.reed")

	piID, err := leader.StartProcess("TaskForce")
	if err != nil {
		t.Fatal(err)
	}
	t0 := r.clk.Now()
	if err := leader.SetContextField(piID, "tfc", "TaskForceDeadline", t0.Add(72*time.Hour)); err != nil {
		t.Fatal(err)
	}
	// Round-trip a typed read.
	v, err := leader.ContextField(piID, "tfc", "TaskForceDeadline")
	if err != nil {
		t.Fatal(err)
	}
	if !v.(time.Time).Equal(t0.Add(72 * time.Hour)) {
		t.Fatalf("context field round trip = %v", v)
	}

	wl, err := leader.Worklist()
	if err != nil {
		t.Fatal(err)
	}
	if len(wl) != 1 || wl[0].Var != "Organize" {
		t.Fatalf("worklist = %v", wl)
	}
	// The hand-encoded list body is what encoding/json would send.
	if _, body := get(t, r.srv.URL+"/api/worklist/leader"); body != string(encodeLikeWriteJSON(t, r.sys.Worklist("leader"))) {
		t.Fatalf("worklist body is not encoding/json's: %s", body)
	}
	if err := leader.Start(wl[0].ActivityID); err != nil {
		t.Fatal(err)
	}
	if err := leader.Complete(wl[0].ActivityID); err != nil {
		t.Fatal(err)
	}

	// The subprocess invocation shows on the monitor.
	rows, err := leader.Monitor(piID)
	if err != nil {
		t.Fatal(err)
	}
	var reqID string
	for _, row := range rows {
		if row.Var == "RequestInfo" {
			reqID = row.ActivityID
		}
	}
	if reqID == "" {
		t.Fatalf("monitor rows = %v", rows)
	}
	// The hand-encoded list body is what encoding/json would send.
	if _, body := get(t, r.srv.URL+"/api/processes/"+piID+"/monitor"); body != string(encodeLikeWriteJSON(t, r.sys.Coordination().Monitor(piID))) {
		t.Fatalf("monitor body is not encoding/json's: %s", body)
	}
	if err := leader.Start(reqID); err != nil {
		t.Fatal(err)
	}
	if err := leader.SetContextField(reqID, "irc", "Requestor", core.NewRoleValue("dr.reed")); err != nil {
		t.Fatal(err)
	}
	if err := leader.SetContextField(reqID, "irc", "RequestDeadline", t0.Add(48*time.Hour)); err != nil {
		t.Fatal(err)
	}
	// Violation.
	if err := leader.SetContextField(piID, "tfc", "TaskForceDeadline", t0.Add(24*time.Hour)); err != nil {
		t.Fatal(err)
	}

	notifs := waitNotifications(t, reed, 1)
	if notifs[0].Schema != "DeadlineViolation" {
		t.Fatalf("notification = %+v", notifs[0])
	}
	// The digest endpoint aggregates per schema.
	digest, err := reed.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if len(digest) != 1 || digest[0].Schema != "DeadlineViolation" || digest[0].Count != 1 {
		t.Fatalf("digest = %v", digest)
	}
	// Presence round trip.
	if err := reed.SignOn(); err != nil {
		t.Fatal(err)
	}
	if err := reed.SignOff(); err != nil {
		t.Fatal(err)
	}
	ghost := r.participant("ghost")
	if err := ghost.SignOn(); err == nil {
		t.Fatal("unknown participant signed on")
	}
	if err := reed.Ack(notifs[0].ID); err != nil {
		t.Fatal(err)
	}
	after, err := reed.Notifications()
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != 0 {
		t.Fatalf("notifications after ack = %v", after)
	}

	// Processes listing includes both instances.
	procs, err := leader.Processes()
	if err != nil {
		t.Fatal(err)
	}
	if len(procs) != 2 {
		t.Fatalf("processes = %v", procs)
	}
	if leader.Participant() != "leader" {
		t.Fatal("participant accessor wrong")
	}
}

func TestFederationActivityLifecycleOps(t *testing.T) {
	r := newRig(t)
	d := r.designer
	if _, err := d.LoadSpec(testSpec); err != nil {
		t.Fatal(err)
	}
	if err := d.AddParticipant("leader", "L", "human"); err != nil {
		t.Fatal(err)
	}
	if err := d.AddParticipant("epi", "E", "human"); err != nil {
		t.Fatal(err)
	}
	if err := d.AssignRole("CrisisLeader", "leader"); err != nil {
		t.Fatal(err)
	}
	if err := d.AssignRole("Epidemiologist", "epi"); err != nil {
		t.Fatal(err)
	}
	if err := d.StartSystem(); err != nil {
		t.Fatal(err)
	}
	leader := r.participant("leader")
	epi := r.participant("epi")
	piID, err := leader.StartProcess("TaskForce")
	if err != nil {
		t.Fatal(err)
	}
	wl, _ := leader.Worklist()
	if err := leader.Start(wl[0].ActivityID); err != nil {
		t.Fatal(err)
	}
	if err := leader.Suspend(wl[0].ActivityID); err != nil {
		t.Fatal(err)
	}
	if err := leader.Resume(wl[0].ActivityID); err != nil {
		t.Fatal(err)
	}
	if err := leader.Complete(wl[0].ActivityID); err != nil {
		t.Fatal(err)
	}
	// Assess is now ready for the epidemiologist; terminate it.
	ewl, err := epi.Worklist()
	if err != nil {
		t.Fatal(err)
	}
	var assess string
	for _, it := range ewl {
		if it.Var == "Assess" {
			assess = it.ActivityID
		}
	}
	if assess == "" {
		t.Fatalf("worklist = %v", ewl)
	}
	if err := epi.Terminate(assess); err != nil {
		t.Fatal(err)
	}
	// Errors surface as structured messages.
	if err := epi.Start("ghost"); err == nil {
		t.Fatal("start of unknown activity accepted")
	}
	if _, err := epi.Instantiate(piID, "Ghost"); err == nil {
		t.Fatal("instantiate of unknown variable accepted")
	}
	if _, err := epi.ContextField(piID, "tfc", "Unset"); err == nil {
		t.Fatal("read of unknown field accepted")
	}
	if err := epi.SetContextField(piID, "tfc", "TaskForceDeadline", "not-a-time"); err == nil {
		t.Fatal("string accepted for time field")
	}
}

func TestFederationBadRequests(t *testing.T) {
	r := newRig(t)
	d := r.designer
	if _, err := d.LoadSpec("process {"); err == nil {
		t.Fatal("bad spec accepted")
	}
	if err := d.AssignRole("R", "ghost"); err == nil {
		t.Fatal("role for unknown participant accepted")
	}
	if err := d.AddParticipant("", "", "human"); err == nil {
		t.Fatal("empty participant accepted")
	}
	if err := d.StartSystem(); err != nil {
		t.Fatal(err)
	}
	pc := r.participant("x")
	if _, err := pc.StartProcess("Nope"); err == nil {
		t.Fatal("unknown schema started")
	}
	if err := pc.Ack(99); err == nil {
		t.Fatal("ack of unknown notification accepted")
	}
	if err := pc.Transition("ghost", "Running"); err == nil {
		t.Fatal("transition on unknown activity accepted")
	}
	// Unknown op on the activity endpoint.
	if err := pc.activityOp("a-1", "bogus", ""); err == nil {
		t.Fatal("unknown op accepted")
	}
	// Worklist of unknown participant is empty, not an error.
	wl, err := pc.Worklist()
	if err != nil || len(wl) != 0 {
		t.Fatalf("worklist = %v, %v", wl, err)
	}
	notifs, err := pc.Notifications()
	if err != nil || len(notifs) != 0 {
		t.Fatalf("notifications = %v, %v", notifs, err)
	}
}

func TestFieldValueRoundTrip(t *testing.T) {
	now := time.Date(1999, 9, 2, 10, 0, 0, 0, time.UTC)
	cases := []any{
		nil,
		"str",
		int64(42),
		true,
		now,
		core.NewRoleValue("b", "a"),
	}
	for _, v := range cases {
		enc, err := EncodeFieldValue(v)
		if err != nil {
			t.Fatalf("encode %v: %v", v, err)
		}
		dec, err := enc.Decode()
		if err != nil {
			t.Fatalf("decode %v: %v", v, err)
		}
		switch x := v.(type) {
		case time.Time:
			if !dec.(time.Time).Equal(x) {
				t.Fatalf("time round trip: %v != %v", dec, x)
			}
		case core.RoleValue:
			got := dec.(core.RoleValue)
			if len(got) != len(x) || got[0] != x[0] {
				t.Fatalf("role round trip: %v != %v", got, x)
			}
		default:
			if dec != v {
				t.Fatalf("round trip: %v != %v", dec, v)
			}
		}
	}
	if _, err := EncodeFieldValue(3.5); err == nil {
		t.Fatal("float encoded")
	}
	bad := FieldValue{Type: "widget"}
	if _, err := bad.Decode(); err == nil {
		t.Fatal("unknown type decoded")
	}
}

func TestMarkStartedClosesBuildTime(t *testing.T) {
	clk := vclock.NewVirtual()
	sys, err := system.New(system.Config{Clock: clk, StateDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	srv := NewServer(sys)
	if err := sys.Start(); err != nil { // started out of band (cmid -start)
		t.Fatal(err)
	}
	srv.MarkStarted()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	d := NewDesignerClient(ts.URL, ts.Client())
	if _, err := d.LoadSpec(testSpec); err == nil {
		t.Fatal("spec accepted after MarkStarted")
	}
	if err := d.StartSystem(); err == nil {
		t.Fatal("second start accepted after MarkStarted")
	}
}
