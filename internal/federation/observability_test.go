package federation

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/mcc-cmi/cmi/internal/system"
	"github.com/mcc-cmi/cmi/internal/vclock"
)

// get performs a raw GET so tests can assert on status codes and exact
// body bytes, which the typed clients abstract away.
func get(t *testing.T, url string) (int, string) {
	t.Helper()
	res, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	b, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	return res.StatusCode, string(b)
}

func post(t *testing.T, url, body string) (int, string) {
	t.Helper()
	res, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	b, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	return res.StatusCode, string(b)
}

// TestMetricsEndpointCoversLayers runs a system through the API and
// checks /api/metrics exposes the cedmos, awareness, delivery,
// enact and HTTP series in Prometheus text format.
func TestMetricsEndpointCoversLayers(t *testing.T) {
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
	d := NewDesignerClient(srv.URL, srv.Client())
	if _, err := d.LoadSpec(testSpec); err != nil {
		t.Fatal(err)
	}
	if err := d.AddParticipant("leader", "L", "human"); err != nil {
		t.Fatal(err)
	}
	if err := d.AssignRole("CrisisLeader", "leader"); err != nil {
		t.Fatal(err)
	}
	if err := d.AssignRole("Epidemiologist", "leader"); err != nil {
		t.Fatal(err)
	}
	if err := d.StartSystem(); err != nil {
		t.Fatal(err)
	}
	leader := NewParticipantClient(srv.URL, "leader", srv.Client())
	if _, err := leader.StartProcess("TaskForce"); err != nil {
		t.Fatal(err)
	}
	sys.Quiesce()

	code, body := get(t, srv.URL+"/api/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics status = %d", code)
	}
	for _, series := range []string{
		"# TYPE cmi_cedmos_detect_seconds histogram",
		"cmi_cedmos_detect_seconds_bucket",
		"cmi_awareness_detections_total",
		"cmi_delivery_enqueued_total",
		"cmi_delivery_queue_depth",
		`cmi_delivery_notifications_total{result="delivered"}`,
		`cmi_enact_transitions_total{state="Running"}`,
		"cmi_enact_processes",
		`cmi_http_requests_total{code="2xx",route="POST /api/processes"}`,
		`cmi_http_request_seconds_bucket{route="POST /api/spec",le="+Inf"}`,
		"cmi_http_in_flight 1", // this scrape itself
	} {
		if !strings.Contains(body, series) {
			t.Fatalf("metrics missing %q:\n%s", series, body)
		}
	}
}

// TestHealthzLifecycle checks the 200/503 contract: unhealthy before
// start, healthy while running, unhealthy after close.
func TestHealthzLifecycle(t *testing.T) {
	sys, err := system.New(system.Config{Clock: vclock.NewVirtual(), StateDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	h := NewServer(sys).Handler()
	probe := func() (int, system.Health) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/api/healthz", nil))
		var out system.Health
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("healthz body: %v", err)
		}
		return rec.Code, out
	}

	if code, out := probe(); code != http.StatusServiceUnavailable || out.Healthy {
		t.Fatalf("before start: %d %+v", code, out)
	}
	if _, err := sys.LoadSpec(testSpec); err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(); err != nil {
		t.Fatal(err)
	}
	if code, out := probe(); code != http.StatusOK || !out.Healthy || !out.EngineRunning {
		t.Fatalf("running: %d %+v", code, out)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	if code, out := probe(); code != http.StatusServiceUnavailable || out.Healthy || out.StoreOpen {
		t.Fatalf("after close: %d %+v", code, out)
	}
}

// TestListEndpointsEncodeEmptyAsArray pins the wire shape of every list
// endpoint: an empty result is [], never null.
func TestListEndpointsEncodeEmptyAsArray(t *testing.T) {
	r := newRig(t)
	if err := r.designer.StartSystem(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{
		"/api/processes",
		"/api/processes/p-404/monitor",
		"/api/worklist/nobody",
		"/api/notifications/nobody",
		"/api/notifications/nobody/digest",
	} {
		code, body := get(t, r.srv.URL+path)
		if code != http.StatusOK {
			t.Fatalf("%s status = %d", path, code)
		}
		if strings.TrimSpace(body) != "[]" {
			t.Fatalf("%s body = %q, want []", path, body)
		}
	}
}

// TestErrorStatusMapping checks not-found lookups answer 404, malformed
// requests 400, and build-time operations after start 409.
func TestErrorStatusMapping(t *testing.T) {
	r := newRig(t)
	d := r.designer
	if _, err := d.LoadSpec(testSpec); err != nil {
		t.Fatal(err)
	}
	if err := d.StartSystem(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name       string
		method     string
		path, body string
		want       int
	}{
		{"unknown activity op", "POST", "/api/activities/a-1/bogus", `{"user":"u"}`, http.StatusNotFound},
		{"op on unknown activity", "POST", "/api/activities/ghost/start", `{"user":"u"}`, http.StatusNotFound},
		{"start unknown schema", "POST", "/api/processes", `{"schema":"Nope","initiator":"u"}`, http.StatusNotFound},
		{"instantiate in unknown process", "POST", "/api/processes/p-404/activities", `{"var":"X","user":"u"}`, http.StatusNotFound},
		{"bad notification id", "POST", "/api/notifications/u/banana/ack", `{}`, http.StatusBadRequest},
		{"ack of unknown id", "POST", "/api/notifications/u/99/ack", `{}`, http.StatusNotFound},
		{"field not set", "GET", "/api/contexts/p-404/tfc/Nope", "", http.StatusNotFound},
		{"set field of unknown process", "PUT", "/api/contexts/p-404/tfc/TaskForceDeadline", `{"type":"string","value":"x"}`, http.StatusNotFound},
		{"malformed body", "POST", "/api/processes", `{`, http.StatusBadRequest},
		{"spec after start", "POST", "/api/spec", `{"source":"process X { activity A role org R }"}`, http.StatusConflict},
	}
	for _, tc := range cases {
		var req *http.Request
		var err error
		if tc.method == "GET" {
			req, err = http.NewRequest("GET", r.srv.URL+tc.path, nil)
		} else {
			req, err = http.NewRequest(tc.method, r.srv.URL+tc.path, bytes.NewReader([]byte(tc.body)))
		}
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var eb errorBody
		_ = json.NewDecoder(res.Body).Decode(&eb)
		res.Body.Close()
		if res.StatusCode != tc.want {
			t.Errorf("%s: status = %d (%s), want %d", tc.name, res.StatusCode, eb.Error, tc.want)
		}
		if eb.Error == "" {
			t.Errorf("%s: no structured error body", tc.name)
		}
	}
}

// TestConcurrentSpecLoadAndStart hammers postSpec against postStart; a
// spec must either load fully before the start or be rejected with 409,
// never half-register (regression for the spec-load/start race).
func TestConcurrentSpecLoadAndStart(t *testing.T) {
	for i := 0; i < 20; i++ {
		r := newRig(t)
		// Raw requests in goroutines must not t.Fatal; report status 0 on
		// transport errors and let the invariant check below fail loudly.
		rawPost := func(path, body string) int {
			res, err := http.Post(r.srv.URL+path, "application/json", strings.NewReader(body))
			if err != nil {
				return 0
			}
			res.Body.Close()
			return res.StatusCode
		}
		specDone := make(chan int, 1)
		startDone := make(chan int, 1)
		go func() { specDone <- rawPost("/api/spec", `{"source":`+string(mustJSON(testSpec))+`}`) }()
		go func() { startDone <- rawPost("/api/system/start", `{}`) }()
		specCode := <-specDone
		<-startDone
		names := r.sys.Schemas().Names()
		switch {
		case specCode == http.StatusOK && len(names) == 0:
			t.Fatalf("spec reported loaded but no schemas registered")
		case specCode != http.StatusOK && len(names) != 0:
			t.Fatalf("spec rejected (%d) but schemas partially registered: %v", specCode, names)
		}
	}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}
