// Package federation implements the CMI system run-time architecture of
// Figure 5: the CMI Enactment System as a server — the CORE,
// Coordination and Awareness engines acting together behind one API —
// plus the Client for Participants (worklist, monitor, awareness
// information viewer) and the Client for Designers (process and
// awareness specification).
//
// The paper's prototype federated its agents over COTS middleware; here
// the transport is HTTP/JSON from the standard library, which preserves
// the client-server decomposition while staying dependency-free.
package federation

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/mcc-cmi/cmi/internal/core"
	"github.com/mcc-cmi/cmi/internal/delivery"
	"github.com/mcc-cmi/cmi/internal/obs"
	"github.com/mcc-cmi/cmi/internal/system"
)

// Server exposes one CMI system over HTTP. Specification endpoints are
// open until /api/system/start is called (build time vs run time);
// enactment endpoints work at any point after start.
type Server struct {
	sys *system.System

	// streamPing is the heartbeat interval for idle streaming sessions;
	// zero selects DefaultStreamPing (see SetStreamPing).
	streamPing time.Duration

	mu      sync.Mutex
	started bool
}

// NewServer wraps an un-started system.
func NewServer(sys *system.System) *Server {
	return &Server{sys: sys}
}

// MarkStarted records that the wrapped system was started out of band
// (e.g. by the daemon's -start flag), closing the build-time endpoints.
func (s *Server) MarkStarted() {
	s.mu.Lock()
	s.started = true
	s.mu.Unlock()
}

// Handler returns the HTTP handler implementing the federation API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()

	// Designer (build-time) API.
	mux.HandleFunc("POST /api/spec", s.postSpec)
	mux.HandleFunc("POST /api/directory/participants", s.postParticipant)
	mux.HandleFunc("POST /api/directory/roles", s.postRole)
	mux.HandleFunc("POST /api/system/start", s.postStart)
	mux.HandleFunc("GET /api/schemas", s.getSchemas)

	// Participant (run-time) API.
	mux.HandleFunc("POST /api/processes", s.postProcess)
	mux.HandleFunc("GET /api/processes", s.getProcesses)
	mux.HandleFunc("GET /api/processes/{id}/monitor", s.getMonitor)
	mux.HandleFunc("POST /api/processes/{id}/activities", s.postInstantiate)
	mux.HandleFunc("GET /api/worklist/{participant}", s.getWorklist)
	mux.HandleFunc("POST /api/activities/{id}/{op}", s.postActivityOp)
	mux.HandleFunc("PUT /api/contexts/{process}/{ctxvar}/{field}", s.putContextField)
	mux.HandleFunc("GET /api/contexts/{process}/{ctxvar}/{field}", s.getContextField)
	mux.HandleFunc("GET /api/notifications/{participant}", s.getNotifications)
	mux.HandleFunc("GET /api/notifications/{participant}/digest", s.getDigest)
	mux.HandleFunc("POST /api/notifications/{participant}/{id}/ack", s.postAck)
	mux.HandleFunc("POST /api/presence/{participant}", s.postPresence)
	mux.HandleFunc("GET /api/stream/notifications", s.getStream)

	// Federation (cross-domain) API.
	mux.HandleFunc("POST /api/remote/notifications", s.postRemoteNotification)

	// Operations API.
	mux.Handle("GET /api/metrics", s.sys.Metrics())
	mux.HandleFunc("GET /api/healthz", s.getHealthz)
	mux.HandleFunc("POST /api/system/quiesce", s.postQuiesce)
	mux.HandleFunc("GET /api/system/recovery", s.getRecovery)
	return s.instrument(mux)
}

// statusRecorder captures the status code a handler writes so the
// middleware can label the request counter by status class.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.code = code
	sr.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the underlying writer so streaming handlers can
// push frames through the instrumentation middleware (embedding only
// promotes the ResponseWriter interface, not Flusher).
func (sr *statusRecorder) Flush() {
	if f, ok := sr.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// routeSeries caches one route's HTTP instruments so the steady-state
// request path never touches the registry (register takes the registry's
// exclusive lock and builds label keys). byClass is indexed by the status
// code's hundreds digit and filled lazily under the owning map's lock.
type routeSeries struct {
	latency *obs.Histogram
	byClass [6]*obs.Counter
}

// httpClassLabel maps a status code's hundreds digit to its label value.
var httpClassLabel = [6]string{"0xx", "1xx", "2xx", "3xx", "4xx", "5xx"}

// instrument wraps the mux with the HTTP metric series: request count
// by route and status class, request latency by route, and the
// in-flight gauge. The route label is the mux pattern (not the raw
// URL), keeping the series cardinality bounded. Instruments are cached
// per (route, status class) behind a read-locked map, so after a route's
// first request the hot path is two map hits and three atomic ops.
func (s *Server) instrument(next http.Handler) http.Handler {
	reg := s.sys.Metrics()
	if reg == nil {
		return next
	}
	inFlight := reg.Gauge("cmi_http_in_flight", "Requests currently being served.")
	var (
		mu     sync.RWMutex
		routes = make(map[string]*routeSeries)
	)
	lookup := func(route string, class int) (*obs.Counter, *obs.Histogram) {
		mu.RLock()
		rs := routes[route]
		var c *obs.Counter
		if rs != nil {
			c = rs.byClass[class]
		}
		mu.RUnlock()
		if c != nil {
			return c, rs.latency
		}
		mu.Lock()
		defer mu.Unlock()
		rs = routes[route]
		if rs == nil {
			rs = &routeSeries{latency: reg.Histogram("cmi_http_request_seconds",
				"API request latency by route pattern.",
				nil, obs.L("route", route))}
			routes[route] = rs
		}
		if rs.byClass[class] == nil {
			rs.byClass[class] = reg.Counter("cmi_http_requests_total",
				"API requests by route pattern and status class.",
				obs.L("code", httpClassLabel[class]),
				obs.L("route", route))
		}
		return rs.byClass[class], rs.latency
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		inFlight.Inc()
		defer inFlight.Dec()
		sr := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		t0 := time.Now()
		next.ServeHTTP(sr, r)
		route := r.Pattern // set by ServeMux on match
		if route == "" {
			route = "unmatched"
		}
		class := sr.code / 100
		if class < 0 || class >= len(httpClassLabel) {
			class = 0
		}
		c, h := lookup(route, class)
		c.Inc()
		h.Observe(time.Since(t0))
	})
}

// postQuiesce blocks until every event emitted before the call has been
// fully detected, delivered, and its follow-on hooks (including
// cross-domain forwarders spooling into their journals) have finished.
// The system keeps running; this is the settle barrier a black-box
// harness needs before checking global invariants.
func (s *Server) postQuiesce(w http.ResponseWriter, r *http.Request) {
	s.sys.Quiesce()
	writeJSON(w, http.StatusOK, struct{}{})
}

// RecoveryInfo is the wire form of the enactment recovery pass that ran
// when the system was built (enact.RecoveryStats).
type RecoveryInfo struct {
	SnapshotLoaded bool    `json:"snapshotLoaded"` // a snapshot seeded the state
	SnapshotSeq    int64   `json:"snapshotSeq"`    // journal seq the snapshot covers
	Replayed       int     `json:"replayed"`       // journal records re-executed
	Skipped        int     `json:"skipped"`        // records at or below the snapshot seq
	Failed         int     `json:"failed"`         // records that no longer apply
	TornTail       bool    `json:"tornTail"`       // a torn final record was discarded
	Corrupt        bool    `json:"corrupt"`        // mid-journal corruption stopped the replay
	CorruptOffset  int64   `json:"corruptOffset"`  // byte offset of the first bad record
	LastSeq        int64   `json:"lastSeq"`        // highest journal seq seen
	ElapsedMs      float64 `json:"elapsedMs"`      // wall time of the recovery pass
}

func (s *Server) getRecovery(w http.ResponseWriter, r *http.Request) {
	st := s.sys.Recovery()
	writeJSON(w, http.StatusOK, RecoveryInfo{
		SnapshotLoaded: st.SnapshotLoaded,
		SnapshotSeq:    st.SnapshotSeq,
		Replayed:       st.Replayed,
		Skipped:        st.Skipped,
		Failed:         st.Failed,
		TornTail:       st.TornTail,
		Corrupt:        st.Corrupt,
		CorruptOffset:  st.CorruptOffset,
		LastSeq:        st.LastSeq,
		ElapsedMs:      float64(st.Elapsed) / float64(time.Millisecond),
	})
}

func (s *Server) getHealthz(w http.ResponseWriter, r *http.Request) {
	h := s.sys.Health()
	code := http.StatusOK
	if !h.Healthy {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, h)
}

type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorBody{Error: err.Error()})
}

// errStatus maps an engine error to an HTTP status: lookups of entities
// that do not exist are 404, build-time operations after Start are 409,
// everything else is a generic client error.
func errStatus(err error) int {
	switch {
	case errors.Is(err, core.ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, system.ErrStarted):
		return http.StatusConflict
	}
	return http.StatusBadRequest
}

func decode[T any](w http.ResponseWriter, r *http.Request) (T, bool) {
	var v T
	if err := json.NewDecoder(r.Body).Decode(&v); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("federation: bad request body: %w", err))
		return v, false
	}
	return v, true
}

// ----- designer endpoints -----

// SpecRequest carries ADL source text.
type SpecRequest struct {
	Source string `json:"source"` // ADL specification text
}

// SpecResponse reports what the spec declared.
type SpecResponse struct {
	Processes []string `json:"processes"` // process schema names declared
	Awareness []string `json:"awareness"` // awareness schema names declared
}

func (s *Server) postSpec(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	started := s.started
	s.mu.Unlock()
	if started {
		writeErr(w, http.StatusConflict, fmt.Errorf("federation: system already started; specifications are build-time"))
		return
	}
	req, ok := decode[SpecRequest](w, r)
	if !ok {
		return
	}
	spec, err := s.sys.LoadSpec(req.Source)
	if err != nil {
		writeErr(w, errStatus(err), err)
		return
	}
	resp := SpecResponse{}
	for _, p := range spec.Processes {
		resp.Processes = append(resp.Processes, p.Name)
	}
	for _, a := range spec.Awareness {
		resp.Awareness = append(resp.Awareness, a.Name)
	}
	writeJSON(w, http.StatusOK, resp)
}

// ParticipantRequest registers a participant.
type ParticipantRequest struct {
	ID   string `json:"id"`   // directory identifier
	Name string `json:"name"` // display name
	Kind string `json:"kind"` // "human" (default) or "program"
}

func (s *Server) postParticipant(w http.ResponseWriter, r *http.Request) {
	req, ok := decode[ParticipantRequest](w, r)
	if !ok {
		return
	}
	var err error
	if req.Kind == "program" {
		err = s.sys.AddProgram(req.ID, req.Name)
	} else {
		err = s.sys.AddHuman(req.ID, req.Name)
	}
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, struct{}{})
}

// RoleRequest assigns an organizational role.
type RoleRequest struct {
	Role        string `json:"role"`        // organizational role name
	Participant string `json:"participant"` // directory id of the member
}

func (s *Server) postRole(w http.ResponseWriter, r *http.Request) {
	req, ok := decode[RoleRequest](w, r)
	if !ok {
		return
	}
	if err := s.sys.AssignRole(req.Role, req.Participant); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, struct{}{})
}

func (s *Server) postStart(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		writeErr(w, http.StatusConflict, fmt.Errorf("federation: system already started"))
		return
	}
	if err := s.sys.Start(); err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	s.started = true
	writeJSON(w, http.StatusOK, struct{}{})
}

func (s *Server) getSchemas(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.sys.Schemas().Names())
}

// ----- participant endpoints -----

// StartProcessRequest instantiates a process schema.
type StartProcessRequest struct {
	Schema    string `json:"schema"`    // process schema to instantiate
	Initiator string `json:"initiator"` // participant starting the process
}

// StartProcessResponse returns the new instance id.
type StartProcessResponse struct {
	ID string `json:"id"` // new process instance id
}

func (s *Server) postProcess(w http.ResponseWriter, r *http.Request) {
	req, ok := decode[StartProcessRequest](w, r)
	if !ok {
		return
	}
	pi, err := s.sys.StartProcess(req.Schema, req.Initiator)
	if err != nil {
		writeErr(w, errStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, StartProcessResponse{ID: pi.ID()})
}

// ProcessInfo summarizes one process instance.
type ProcessInfo struct {
	ID     string `json:"id"`     // process instance id
	Schema string `json:"schema"` // schema the instance was built from
	State  string `json:"state"`  // current CORE state
}

func (s *Server) getProcesses(w http.ResponseWriter, r *http.Request) {
	infos := s.sys.Coordination().ProcessInfos()
	out := make([]ProcessInfo, len(infos)) // empty list encodes as [], never null
	for i, pi := range infos {
		out[i] = ProcessInfo{ID: pi.ID, Schema: pi.Schema, State: string(pi.State)}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) getMonitor(w http.ResponseWriter, r *http.Request) {
	rows := s.sys.Coordination().Monitor(r.PathValue("id"))
	writeListBody(w, appendMonitorRows(listBuf(len(rows), rowBytesHint), rows))
}

// InstantiateRequest creates another instance of a repeatable activity.
type InstantiateRequest struct {
	Var  string `json:"var"`  // repeatable activity variable name
	User string `json:"user"` // acting participant
}

func (s *Server) postInstantiate(w http.ResponseWriter, r *http.Request) {
	req, ok := decode[InstantiateRequest](w, r)
	if !ok {
		return
	}
	info, err := s.sys.Coordination().Instantiate(r.PathValue("id"), req.Var, req.User)
	if err != nil {
		writeErr(w, errStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) getWorklist(w http.ResponseWriter, r *http.Request) {
	items := s.sys.Worklist(r.PathValue("participant"))
	writeListBody(w, appendWorkItems(listBuf(len(items), rowBytesHint), items))
}

// ActivityOpRequest names the acting user.
type ActivityOpRequest struct {
	User string `json:"user"` // acting participant
	// To is the explicit target state for op "transition".
	To string `json:"to,omitempty"`
}

func (s *Server) postActivityOp(w http.ResponseWriter, r *http.Request) {
	req, ok := decode[ActivityOpRequest](w, r)
	if !ok {
		return
	}
	id := r.PathValue("id")
	co := s.sys.Coordination()
	var err error
	switch op := r.PathValue("op"); op {
	case "start":
		err = co.Start(id, req.User)
	case "complete":
		err = co.Complete(id, req.User)
	case "terminate":
		err = co.Terminate(id, req.User)
	case "suspend":
		err = co.Suspend(id, req.User)
	case "resume":
		err = co.Resume(id, req.User)
	case "assign":
		err = co.Assign(id, req.User)
	case "transition":
		err = co.Transition(id, core.State(req.To), req.User)
	default:
		writeErr(w, http.StatusNotFound, fmt.Errorf("federation: unknown activity operation %q", op))
		return
	}
	if err != nil {
		writeErr(w, errStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, struct{}{})
}

// FieldValue is the typed JSON encoding of a context field value.
type FieldValue struct {
	Type string `json:"type"` // string, int, bool, time, role, null
	// Value holds the payload: string for string/time (RFC3339),
	// number for int, bool for bool, []string for role.
	Value json.RawMessage `json:"value,omitempty"`
}

// Decode converts the wire form into a context field value.
func (f FieldValue) Decode() (any, error) {
	switch f.Type {
	case "null", "":
		return nil, nil
	case "string":
		var s string
		return s, json.Unmarshal(f.Value, &s)
	case "int":
		var n int64
		return n, json.Unmarshal(f.Value, &n)
	case "bool":
		var b bool
		return b, json.Unmarshal(f.Value, &b)
	case "time":
		var s string
		if err := json.Unmarshal(f.Value, &s); err != nil {
			return nil, err
		}
		return time.Parse(time.RFC3339Nano, s)
	case "role":
		var ids []string
		if err := json.Unmarshal(f.Value, &ids); err != nil {
			return nil, err
		}
		return core.NewRoleValue(ids...), nil
	}
	return nil, fmt.Errorf("federation: unknown field value type %q", f.Type)
}

// EncodeFieldValue converts a context field value to the wire form.
func EncodeFieldValue(v any) (FieldValue, error) {
	marshal := func(t string, x any) (FieldValue, error) {
		b, err := json.Marshal(x)
		return FieldValue{Type: t, Value: b}, err
	}
	switch x := v.(type) {
	case nil:
		return FieldValue{Type: "null"}, nil
	case string:
		return marshal("string", x)
	case bool:
		return marshal("bool", x)
	case time.Time:
		return marshal("time", x.Format(time.RFC3339Nano))
	case core.RoleValue:
		return marshal("role", []string(x))
	default:
		if n, ok := asInt64(v); ok {
			return marshal("int", n)
		}
	}
	return FieldValue{}, fmt.Errorf("federation: cannot encode field value of type %T", v)
}

func asInt64(v any) (int64, bool) {
	switch x := v.(type) {
	case int:
		return int64(x), true
	case int32:
		return int64(x), true
	case int64:
		return x, true
	}
	return 0, false
}

func (s *Server) putContextField(w http.ResponseWriter, r *http.Request) {
	req, ok := decode[FieldValue](w, r)
	if !ok {
		return
	}
	v, err := req.Decode()
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if err := s.sys.SetContextField(r.PathValue("process"), r.PathValue("ctxvar"), r.PathValue("field"), v); err != nil {
		writeErr(w, errStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, struct{}{})
}

func (s *Server) getContextField(w http.ResponseWriter, r *http.Request) {
	v, ok := s.sys.ContextField(r.PathValue("process"), r.PathValue("ctxvar"), r.PathValue("field"))
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("federation: field not set"))
		return
	}
	enc, err := EncodeFieldValue(v)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, enc)
}

// postRemoteNotification accepts one awareness notification forwarded
// from another CMI domain's store-and-forward spool. The idempotency
// key is journaled with the queued notification, so replays — retries
// after ambiguous failures, redeliveries after restarts — are
// deduplicated even across a server restart.
func (s *Server) postRemoteNotification(w http.ResponseWriter, r *http.Request) {
	req, ok := decode[RemoteNotification](w, r)
	if !ok {
		return
	}
	if req.Key == "" || req.Participant == "" {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("federation: remote notification requires key and participant"))
		return
	}
	// The keyed push rides the batch fan-out path: under concurrent
	// pushes (a remote domain draining its spool while local detection
	// runs) the journal appends coalesce into shared commit groups.
	_, dups, err := s.sys.Store().EnqueueFanout([]string{req.Participant}, req.Key, req.Notification)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, PushResponse{Duplicate: dups > 0})
}

func (s *Server) getNotifications(w http.ResponseWriter, r *http.Request) {
	pending, err := s.sys.Viewer(r.PathValue("participant")).Pending()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	body, err := delivery.AppendJSON(listBuf(len(pending), notifBytesHint), pending)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeListBody(w, append(body, '\n'))
}

func (s *Server) getDigest(w http.ResponseWriter, r *http.Request) {
	digest, err := s.sys.Viewer(r.PathValue("participant")).Digest()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	if digest == nil {
		digest = []delivery.Digest{}
	}
	writeJSON(w, http.StatusOK, digest)
}

// PresenceRequest records a participant signing on or off.
type PresenceRequest struct {
	Online bool `json:"online"` // true: sign on; false: sign off
}

func (s *Server) postPresence(w http.ResponseWriter, r *http.Request) {
	req, ok := decode[PresenceRequest](w, r)
	if !ok {
		return
	}
	participant := r.PathValue("participant")
	if req.Online {
		if err := s.sys.SignOn(participant); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
	} else {
		s.sys.SignOff(participant)
	}
	writeJSON(w, http.StatusOK, struct{}{})
}

func (s *Server) postAck(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("federation: bad notification id"))
		return
	}
	if err := s.sys.Viewer(r.PathValue("participant")).Ack(id); err != nil {
		writeErr(w, errStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, struct{}{})
}
