package delivery

import (
	"fmt"
	"sync"
	"time"

	"github.com/mcc-cmi/cmi/internal/awareness"
	"github.com/mcc-cmi/cmi/internal/core"
	"github.com/mcc-cmi/cmi/internal/event"
	"github.com/mcc-cmi/cmi/internal/obs"
)

// An Agent is the awareness delivery agent of Section 6.5: it consumes
// the composite events produced by the Output operators (complete with
// delivery instructions), resolves the awareness delivery role and the
// awareness role assignment to a set of participants through the CORE
// engine's directory and context registry, and queues the information for
// each participant.
type Agent struct {
	dir      *core.Directory
	contexts *core.Registry
	store    *Store

	mu            sync.Mutex
	delivered     uint64
	undeliverable uint64
	lastErr       error
	assignments   map[string]awareness.AssignmentFunc
	hooks         []DetectionHook
	hookWG        sync.WaitGroup
}

// A DetectionHook is a follow-on action (a delivery facility Section 6.5
// leaves open): it is invoked — on its own goroutine, after the
// notification has been queued — with the awareness schema name, the
// participants the information went to, and the detected composite
// event. Hooks may start processes or perform any other reaction; they
// run asynchronously precisely so they can re-enter the engines.
type DetectionHook func(schema string, users []string, ev event.Event)

// NewAgent returns a delivery agent resolving roles against the given
// directory and context registry and queueing into store.
func NewAgent(dir *core.Directory, contexts *core.Registry, store *Store) *Agent {
	return &Agent{
		dir:         dir,
		contexts:    contexts,
		store:       store,
		assignments: make(map[string]awareness.AssignmentFunc),
	}
}

// Instrument registers the agent's delivery outcome counters, sampled
// from the existing Stats counters at exposition time. A nil registry
// is a no-op.
func (a *Agent) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	const help = "Detected awareness events by delivery outcome."
	reg.CounterFunc("cmi_delivery_notifications_total", help, func() float64 {
		d, _, _ := a.Stats()
		return float64(d)
	}, obs.L("result", "delivered"))
	reg.CounterFunc("cmi_delivery_notifications_total", help, func() float64 {
		_, u, _ := a.Stats()
		return float64(u)
	}, obs.L("result", "undeliverable"))
}

// RegisterAssignment installs an agent-local awareness role assignment
// function, consulted before the global registry. Agent-local
// registration lets a system bind assignments to its own state (e.g. the
// "online" assignment over its directory's presence) without cross-system
// name clashes.
func (a *Agent) RegisterAssignment(name string, fn awareness.AssignmentFunc) error {
	if name == "" || fn == nil {
		return fmt.Errorf("delivery: assignment requires a name and a function")
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.assignments[name] = fn
	return nil
}

// OnDetection registers a follow-on action hook.
func (a *Agent) OnDetection(h DetectionHook) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.hooks = append(a.hooks, h)
}

// Wait blocks until all follow-on hooks launched so far have returned.
func (a *Agent) Wait() { a.hookWG.Wait() }

// Consume implements event.Consumer for TypeOutput events; other event
// types are ignored. Resolution failures are counted, not fatal: an
// awareness event whose scoped role has already disappeared is dropped,
// which is the correct semantics — the role's lifetime bounds the
// delivery interval (Section 1).
func (a *Agent) Consume(ev event.Event) {
	if ev.Type != event.TypeOutput {
		return
	}
	users, err := a.resolve(ev)
	if err != nil {
		a.fail(err)
		return
	}
	if len(users) == 0 {
		a.fail(fmt.Errorf("delivery: role %q resolved to no participants", ev.String(event.PDeliveryRole)))
		return
	}
	n := NotificationFromEvent(ev)
	// One fan-out call: the notification body is marshaled once and each
	// participant's queue journals it through its own commit group, one
	// queue after another. Detections never overlap here — the awareness
	// engine's one lock serialises them — so a detection's commit shares
	// its group only with remote pushes and acks to the same queue.
	ns, _, err := a.store.EnqueueFanout(users, "", n)
	queued := 0
	for _, qn := range ns {
		if qn.ID != 0 {
			queued++
		}
	}
	a.mu.Lock()
	a.delivered += uint64(queued)
	if err != nil {
		a.undeliverable += uint64(len(users) - queued)
		a.lastErr = err
	}
	a.mu.Unlock()
	a.mu.Lock()
	hooks := append([]DetectionHook(nil), a.hooks...)
	a.mu.Unlock()
	for _, h := range hooks {
		h := h
		a.hookWG.Add(1)
		go func() {
			defer a.hookWG.Done()
			h(n.Schema, users, ev)
		}()
	}
}

func (a *Agent) resolve(ev event.Event) ([]string, error) {
	role := core.RoleRef(ev.String(event.PDeliveryRole))
	scope := event.ProcessRef{
		SchemaID:   ev.String(event.PProcessSchemaID),
		InstanceID: ev.InstanceID(),
	}
	users, err := a.contexts.ResolveRole(a.dir, role, scope)
	if err != nil {
		return nil, err
	}
	name := ev.String(event.PDeliveryAssignment)
	if name == "" {
		name = awareness.AssignIdentity
	}
	a.mu.Lock()
	fn, ok := a.assignments[name]
	a.mu.Unlock()
	if !ok {
		fn, ok = awareness.LookupAssignment(name)
	}
	if !ok {
		return nil, fmt.Errorf("delivery: unknown awareness role assignment %q", name)
	}
	return fn(users, ev), nil
}

func (a *Agent) fail(err error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.undeliverable++
	a.lastErr = err
}

// Stats reports how many notifications were queued and how many detected
// events could not be delivered, with the most recent error.
func (a *Agent) Stats() (delivered, undeliverable uint64, lastErr error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.delivered, a.undeliverable, a.lastErr
}

// NotificationFromEvent builds the queueable form of one TypeOutput
// composite event — the same construction the delivery agent uses for
// local queues, exported so cross-domain forwarders (the federation
// store-and-forward spool) ship byte-identical notifications.
func NotificationFromEvent(ev event.Event) Notification {
	prio, _ := ev.Int64(event.PPriority)
	return Notification{
		Time:        ev.Time(),
		Schema:      ev.String(event.PSchemaName),
		Description: ev.String(event.PDescription),
		Params:      SanitizeParams(ev.Params),
		Priority:    int(prio),
	}
}

// SanitizeParams converts event parameters to JSON-friendly values:
// times to RFC3339 strings, process references and role values to string
// slices, integer kinds to int64; everything else to fmt.Sprint form.
func SanitizeParams(p event.Params) map[string]any {
	out := make(map[string]any, len(p))
	for k, v := range p {
		switch x := v.(type) {
		case nil:
			out[k] = nil
		case string:
			out[k] = x
		case bool:
			out[k] = x
		case time.Time:
			out[k] = x.Format(time.RFC3339Nano)
		case []event.ProcessRef:
			refs := make([]string, len(x))
			for i, r := range x {
				refs[i] = r.String()
			}
			out[k] = refs
		case core.RoleValue:
			out[k] = []string(x)
		default:
			if i, ok := event.AsInt64(v); ok {
				out[k] = i
			} else {
				out[k] = fmt.Sprint(v)
			}
		}
	}
	return out
}

// A Viewer is the awareness information viewer of the CMI Client for
// Participants: it registers an interest in one participant's queue,
// retrieves pending information and acknowledges it.
type Viewer struct {
	store       *Store
	participant string
}

// NewViewer returns a viewer over the participant's queue.
func NewViewer(store *Store, participant string) *Viewer {
	return &Viewer{store: store, participant: participant}
}

// Pending returns the unacknowledged notifications.
func (v *Viewer) Pending() ([]Notification, error) { return v.store.Pending(v.participant) }

// History returns all notifications ever delivered.
func (v *Viewer) History() ([]Notification, error) { return v.store.History(v.participant) }

// Ack acknowledges one notification.
func (v *Viewer) Ack(id int64) error { return v.store.Ack(v.participant, id) }

// Watch streams notifications as they arrive.
func (v *Viewer) Watch() (<-chan Notification, error) { return v.store.Watch(v.participant) }

// Digest aggregates the pending notifications per awareness schema.
func (v *Viewer) Digest() ([]Digest, error) { return v.store.PendingDigest(v.participant) }
