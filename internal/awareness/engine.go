package awareness

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/mcc-cmi/cmi/internal/cedmos"
	"github.com/mcc-cmi/cmi/internal/event"
	"github.com/mcc-cmi/cmi/internal/obs"
)

// An AssignmentFunc is an awareness role assignment RA_P (Section 5.3):
// an arbitrary function over the set of users obtained by resolving the
// awareness delivery role, returning the subset that actually receives
// the information. The detected composite event is supplied so
// assignments can depend on its parameters.
type AssignmentFunc func(users []string, ev event.Event) []string

// AssignIdentity names the identity assignment — every user in the
// delivery role receives the information. It is the paper's (and our)
// default.
const AssignIdentity = "identity"

// AssignFirst names the assignment that picks only the first user (in
// sorted id order) — a simple load-shedding policy.
const AssignFirst = "first"

var (
	assignMu    sync.RWMutex
	assignments = map[string]AssignmentFunc{
		AssignIdentity: func(users []string, _ event.Event) []string { return users },
		AssignFirst: func(users []string, _ event.Event) []string {
			if len(users) == 0 {
				return nil
			}
			return users[:1]
		},
	}
)

// RegisterAssignment installs a named awareness role assignment function.
// Registering an existing name replaces it.
func RegisterAssignment(name string, fn AssignmentFunc) error {
	if name == "" || fn == nil {
		return fmt.Errorf("awareness: assignment requires a name and a function")
	}
	assignMu.Lock()
	defer assignMu.Unlock()
	assignments[name] = fn
	return nil
}

// LookupAssignment returns the named assignment function.
func LookupAssignment(name string) (AssignmentFunc, bool) {
	assignMu.RLock()
	defer assignMu.RUnlock()
	fn, ok := assignments[name]
	return fn, ok
}

// Options configures an awareness engine.
type Options struct {
	// Replicate controls process instance replication of operator state
	// (Section 5.1.2). It is on by default; turning it off is only for
	// the E8 ablation, which demonstrates cross-instance mixing errors.
	DisableReplication bool
	// Metrics, if non-nil, receives the engine's metric series at Start:
	// detections, dropped events, per-event detection latency, and
	// per-operator consumed/emitted counters. Hot-path recording is
	// allocation-free.
	Metrics *obs.Registry
}

// Engine is the Awareness Engine of Figure 5: it compiles awareness
// schemas into a detection graph, consumes the primitive events gathered
// from the CORE and Coordination engines, and forwards detected composite
// events — complete with delivery instructions — to the awareness
// delivery sink.
//
// Event processing happens inside Consume: delivery-role resolution
// happens "at composite event detection time" (Section 5), which in
// particular means a scoped role referenced by a detection triggered by
// the final events of its own scope is still resolvable — the context
// retires only after the event has been fully processed (see the
// coordination engine's deferred retirement).
type Engine struct {
	opts Options

	mu      sync.RWMutex
	schemas []*Schema
	graph   *cedmos.Graph
	sink    event.Consumer
	running bool
	detect  *obs.Histogram // nil when uninstrumented

	dropped atomic.Uint64
}

// NewEngine returns an engine that forwards detected output events to
// sink (normally the delivery agent of package delivery).
func NewEngine(sink event.Consumer, opts Options) *Engine {
	return &Engine{opts: opts, sink: sink}
}

// Define adds awareness schemas. Define may only be called before Start.
func (e *Engine) Define(schemas ...*Schema) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.running {
		return fmt.Errorf("awareness: cannot define schemas while the engine runs")
	}
	for _, s := range schemas {
		if err := s.Validate(); err != nil {
			return err
		}
	}
	e.schemas = append(e.schemas, schemas...)
	return nil
}

// Schemas returns the names of the defined awareness schemas, sorted.
func (e *Engine) Schemas() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]string, 0, len(e.schemas))
	for _, s := range e.schemas {
		out = append(out, s.Name)
	}
	sort.Strings(out)
	return out
}

// Start compiles the defined schemas into one multi-rooted detection
// graph (the build-time transformation of Section 6.4) and begins
// accepting events.
func (e *Engine) Start() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.running {
		return fmt.Errorf("awareness: engine already started")
	}
	if len(e.schemas) == 0 {
		return fmt.Errorf("awareness: no awareness schemas defined")
	}
	graph, err := Compile(e.schemas, !e.opts.DisableReplication, e.wrapSink(e.sink))
	if err != nil {
		return err
	}
	e.graph = graph
	e.running = true
	e.registerMetricsLocked()
	return nil
}

// countingSink counts detected output events before forwarding them.
type countingSink struct {
	detections *obs.Counter
	inner      event.Consumer
}

func (c countingSink) Consume(ev event.Event) {
	c.detections.Inc()
	if c.inner != nil {
		c.inner.Consume(ev)
	}
}

// wrapSink interposes the detection counter when a metrics registry is
// configured; otherwise the sink passes through untouched.
func (e *Engine) wrapSink(sink event.Consumer) event.Consumer {
	reg := e.opts.Metrics
	if reg == nil {
		return sink
	}
	return countingSink{
		detections: reg.Counter("cmi_awareness_detections_total",
			"Composite events detected and forwarded to the delivery sink."),
		inner: sink,
	}
}

// registerMetricsLocked publishes the engine-level series: dropped
// events, detection latency, and the per-operator consumed/emitted
// counters of EngineStats. The counters are sampled at exposition time
// from the graph's existing atomics, so detection pays nothing extra.
// Called with e.mu held, after the graph exists.
func (e *Engine) registerMetricsLocked() {
	reg := e.opts.Metrics
	if reg == nil {
		return
	}
	reg.CounterFunc("cmi_awareness_dropped_total",
		"Events that arrived while the awareness engine was not running.",
		func() float64 { return float64(e.Dropped()) })
	e.detect = reg.Histogram("cmi_cedmos_detect_seconds",
		"Per-event detection latency, including the in-line hand-off of detections to the delivery sink.", nil)
	for _, ns := range e.graph.Stats() {
		name := ns.Name
		reg.CounterFunc("cmi_awareness_node_consumed_total",
			"Events consumed per operator node.",
			func() float64 { return float64(e.nodeStat(name, false)) }, obs.L("node", name))
		reg.CounterFunc("cmi_awareness_node_emitted_total",
			"Events emitted per operator node.",
			func() float64 { return float64(e.nodeStat(name, true)) }, obs.L("node", name))
	}
}

// nodeStat samples one node's counter for the metric callbacks.
func (e *Engine) nodeStat(name string, emitted bool) uint64 {
	for _, ns := range e.Stats().Nodes {
		if ns.Name == name {
			if emitted {
				return ns.Emitted
			}
			return ns.Consumed
		}
	}
	return 0
}

// Stop stops accepting events. Every event consumed before Stop has
// already been fully processed. Stop is idempotent.
func (e *Engine) Stop() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.running = false
}

// Consume implements event.Consumer: the engine is registered as an
// observer of the coordination engine (activity events) and the context
// registry (context events). The event is pushed through the detection
// graph — and every detection it triggers through the delivery sink —
// before Consume returns. Events arriving before Start or after Stop are
// dropped and counted (see Dropped).
func (e *Engine) Consume(ev event.Event) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.running {
		e.dropped.Add(1)
		return
	}
	t0 := time.Now()
	_, _ = e.graph.InjectEvent(ev)
	e.detect.Observe(time.Since(t0))
}

// Dropped reports how many events arrived before Start or after Stop
// (and were therefore never processed).
func (e *Engine) Dropped() uint64 { return e.dropped.Load() }

// Running reports whether the engine is between Start and Stop.
func (e *Engine) Running() bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.running
}

// EngineStats reports the engine's detection counters.
type EngineStats struct {
	// Dropped counts events that arrived while the engine was not
	// running.
	Dropped uint64
	// Nodes holds the per-operator counters, sorted by node name.
	Nodes []cedmos.NodeStats
}

// Stats exposes the per-operator counters of the detection graph plus
// the dropped-event count.
func (e *Engine) Stats() EngineStats {
	e.mu.RLock()
	defer e.mu.RUnlock()
	st := EngineStats{Dropped: e.dropped.Load()}
	if e.graph != nil {
		st.Nodes = e.graph.Stats()
	}
	return st
}
