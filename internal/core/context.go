package core

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/mcc-cmi/cmi/internal/event"
	"github.com/mcc-cmi/cmi/internal/vclock"
)

// A Context is a runtime context resource: a collection of named, typed
// fields (Section 4). Contexts are accessed only through the Registry,
// which is what associates a scope with them: a context is visible exactly
// to the process instances it has been associated with, and scoped roles
// stored in role fields live and die with the context.
type Context struct {
	id      string
	name    string // context (schema) name, e.g. "TaskForceContext"
	schema  *ResourceSchema
	fields  map[string]any
	procs   []event.ProcessRef
	retired bool
}

// ID returns the context instance id.
func (c *Context) ID() string { return c.id }

// Name returns the context's schema-level name.
func (c *Context) Name() string { return c.name }

// The Registry owns all runtime contexts of one CMI system. Every field
// modification produces a primitive context field change event that is
// pushed to the registered observers — this is the event source agent for
// E_context (Section 6.3). Registry is safe for concurrent use.
type Registry struct {
	mu        sync.RWMutex
	clock     vclock.Clock
	contexts  map[string]*Context
	byName    map[string]map[string]*Context // name -> id -> context
	observers []event.Consumer
	nextID    int
	// logger, when set, journals every SetField mutation: it is invoked
	// with the registry lock held (so journal order equals write order
	// per field) and returns a wait function run after the lock is
	// released, before observers see the change — a notification never
	// leaves the system for an unjournaled mutation.
	logger func(contextID, field string, value any) func() error
}

// NewRegistry returns an empty context registry reading time from clock.
func NewRegistry(clock vclock.Clock) *Registry {
	return &Registry{
		clock:    clock,
		contexts: make(map[string]*Context),
		byName:   make(map[string]map[string]*Context),
	}
}

// Observe registers a consumer for context field change events. Observers
// are invoked synchronously, in registration order, while the field lock
// is NOT held.
func (r *Registry) Observe(c event.Consumer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.observers = append(r.observers, c)
}

// Create makes a new context instance of the given schema, associated with
// the given process instances. The schema must be a context resource
// schema.
func (r *Registry) Create(schema *ResourceSchema, procs ...event.ProcessRef) (*Context, error) {
	if schema == nil || schema.Kind != ContextResource {
		return nil, fmt.Errorf("core: Create requires a context resource schema")
	}
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	c := &Context{
		id:     fmt.Sprintf("ctx-%d", r.nextID),
		name:   schema.Name,
		schema: schema,
		fields: make(map[string]any),
		procs:  append([]event.ProcessRef(nil), procs...),
	}
	r.contexts[c.id] = c
	if r.byName[c.name] == nil {
		r.byName[c.name] = make(map[string]*Context)
	}
	r.byName[c.name][c.id] = c
	return c, nil
}

// CreateAt is Create with a forced id serial: the new context gets id
// "ctx-<serial>" and the id counter is raised to at least serial. Only
// enactment replay uses it — re-executed operations recreate their
// contexts at the recorded serials, which (unlike forcing the shared
// counter with SetSerial) stays correct when unrelated process families
// replay concurrently.
func (r *Registry) CreateAt(serial int, schema *ResourceSchema, procs ...event.ProcessRef) (*Context, error) {
	if serial <= 0 {
		return nil, fmt.Errorf("core: CreateAt requires a positive serial")
	}
	if schema == nil || schema.Kind != ContextResource {
		return nil, fmt.Errorf("core: CreateAt requires a context resource schema")
	}
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := fmt.Sprintf("ctx-%d", serial)
	if _, exists := r.contexts[id]; exists {
		return nil, fmt.Errorf("core: context %s already exists", id)
	}
	if serial > r.nextID {
		r.nextID = serial
	}
	c := &Context{
		id:     id,
		name:   schema.Name,
		schema: schema,
		fields: make(map[string]any),
		procs:  append([]event.ProcessRef(nil), procs...),
	}
	r.contexts[c.id] = c
	if r.byName[c.name] == nil {
		r.byName[c.name] = make(map[string]*Context)
	}
	r.byName[c.name][c.id] = c
	return c, nil
}

// Get returns the context with the given id.
func (r *Registry) Get(id string) (*Context, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	c, ok := r.contexts[id]
	if !ok || c.retired {
		return nil, false
	}
	return c, true
}

// Associate adds a process instance to the context's scope. Activity
// instances of associated processes can reach the context; context change
// events carry the association list.
func (r *Registry) Associate(contextID string, ref event.ProcessRef) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.contexts[contextID]
	if !ok || c.retired {
		return fmt.Errorf("core: unknown context %q", contextID)
	}
	for _, p := range c.procs {
		if p == ref {
			return nil
		}
	}
	c.procs = append(c.procs, ref)
	return nil
}

// Associations returns the process instances the context is associated
// with.
func (r *Registry) Associations(contextID string) []event.ProcessRef {
	r.mu.RLock()
	defer r.mu.RUnlock()
	c, ok := r.contexts[contextID]
	if !ok {
		return nil
	}
	return append([]event.ProcessRef(nil), c.procs...)
}

// SetField assigns a context field, validating the value against the
// field's declared type, and emits the primitive context field change
// event. user, if non-empty, is recorded as the event source suffix.
func (r *Registry) SetField(contextID, field string, value any) error {
	r.mu.Lock()
	c, ok := r.contexts[contextID]
	if !ok || c.retired {
		r.mu.Unlock()
		return fmt.Errorf("core: unknown context %q", contextID)
	}
	def, ok := c.schema.Field(field)
	if !ok {
		r.mu.Unlock()
		return fmt.Errorf("core: context %q (%s) has no field %q", contextID, c.name, field)
	}
	if err := checkFieldValue(def, value); err != nil {
		r.mu.Unlock()
		return fmt.Errorf("core: context %q field %q: %w", contextID, field, err)
	}
	old := c.fields[field]
	c.fields[field] = value
	change := event.ContextChange{
		ContextID:     c.id,
		ContextName:   c.name,
		Processes:     append([]event.ProcessRef(nil), c.procs...),
		FieldName:     field,
		OldFieldValue: old,
		NewFieldValue: value,
	}
	observers := append([]event.Consumer(nil), r.observers...)
	stamp := r.clock.Next()
	var commit func() error
	if r.logger != nil {
		commit = r.logger(c.id, field, value)
	}
	r.mu.Unlock()

	if commit != nil {
		if err := commit(); err != nil {
			// The in-memory value stands (accept-then-commit, like the
			// delivery journal); the change is not announced because it
			// may not survive a restart.
			return err
		}
	}
	ev := event.NewContext(stamp, "core-engine", change)
	for _, o := range observers {
		o.Consume(ev)
	}
	return nil
}

// SetLogger installs the journal hook invoked on every SetField while
// the registry lock is held; the returned function (if any) is run
// after the lock is released and must complete before observers are
// notified. Install at most one logger, before concurrent use.
func (r *Registry) SetLogger(fn func(contextID, field string, value any) func() error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.logger = fn
}

func checkFieldValue(def FieldDef, value any) error {
	if value == nil {
		return nil // clearing a field is always allowed
	}
	switch def.Type {
	case FieldString:
		if _, ok := value.(string); !ok {
			return fmt.Errorf("want string, got %T", value)
		}
	case FieldInt:
		if _, ok := event.AsInt64(value); !ok {
			return fmt.Errorf("want integer, got %T", value)
		}
		if _, isTime := value.(time.Time); isTime {
			return fmt.Errorf("want integer, got time.Time (declare the field as time)")
		}
	case FieldTime:
		if _, ok := value.(time.Time); !ok {
			return fmt.Errorf("want time.Time, got %T", value)
		}
	case FieldBool:
		if _, ok := value.(bool); !ok {
			return fmt.Errorf("want bool, got %T", value)
		}
	case FieldRole:
		if _, ok := value.(RoleValue); !ok {
			return fmt.Errorf("want RoleValue, got %T", value)
		}
	case FieldAny:
		// anything goes
	default:
		return fmt.Errorf("unknown field type %v", def.Type)
	}
	return nil
}

// Field reads a context field. The boolean reports whether the field is
// currently set.
func (r *Registry) Field(contextID, field string) (any, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	c, ok := r.contexts[contextID]
	if !ok || c.retired {
		return nil, false
	}
	v, ok := c.fields[field]
	return v, ok
}

// Retire removes a context from scope. Its scoped roles disappear with it
// (Section 5.4: "the Requestor role disappears upon completion of the
// information request process"); subsequent resolution of roles in this
// context yields nothing.
func (r *Registry) Retire(contextID string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.contexts[contextID]
	if !ok || c.retired {
		return fmt.Errorf("core: unknown context %q", contextID)
	}
	c.retired = true
	delete(r.byName[c.name], c.id)
	return nil
}

// ByName returns the live contexts with the given schema-level name,
// sorted by id.
func (r *Registry) ByName(name string) []*Context {
	r.mu.RLock()
	defer r.mu.RUnlock()
	m := r.byName[name]
	out := make([]*Context, 0, len(m))
	for _, c := range m {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// Live returns the number of live (non-retired) contexts.
func (r *Registry) Live() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := 0
	for _, c := range r.contexts {
		if !c.retired {
			n++
		}
	}
	return n
}

// ResolveRole resolves a role reference to the sorted set of participant
// ids, implementing the delivery-role resolution of Section 5.2:
//
//   - organizational roles resolve against the Directory, globally;
//   - user references resolve to that single participant;
//   - scoped roles resolve against the role field of live contexts with
//     the referenced name that are associated with the given process
//     instance scope. A zero scope matches any association. Retired
//     contexts never resolve: the role exists only as long as its scope.
func (r *Registry) ResolveRole(dir *Directory, ref RoleRef, scope event.ProcessRef) ([]string, error) {
	kind, a, b, err := ref.Parse()
	if err != nil {
		return nil, err
	}
	switch kind {
	case RoleOrg:
		return dir.ResolveOrg(a)
	case RoleUser:
		if _, ok := dir.Participant(a); !ok {
			return nil, fmt.Errorf("core: unknown participant %q", a)
		}
		return []string{a}, nil
	case RoleScoped:
		r.mu.RLock()
		defer r.mu.RUnlock()
		ids := map[string]bool{}
		for _, c := range r.byName[a] {
			if c.retired {
				continue
			}
			if !(scope == event.ProcessRef{}) && !contextInScope(c, scope) {
				continue
			}
			if v, ok := c.fields[b]; ok {
				if rv, ok := v.(RoleValue); ok {
					for _, id := range rv {
						ids[id] = true
					}
				}
			}
		}
		out := make([]string, 0, len(ids))
		for id := range ids {
			out = append(out, id)
		}
		sort.Strings(out)
		return out, nil
	}
	return nil, fmt.Errorf("core: unsupported role kind %v", kind)
}

// ---------------------------------------------------------------------
// Snapshot export/import (crash-consistent enactment). The registry's
// whole state — including retired contexts, whose ids must never be
// reused — round-trips through JSON-friendly structs; field values use
// the typed WireValue encoding.

// A ContextExport is the durable form of one context instance.
type ContextExport struct {
	ID      string               `json:"id"`
	Name    string               `json:"name"`
	Schema  *ResourceSchema      `json:"schema"`
	Fields  map[string]WireValue `json:"fields,omitempty"`
	Procs   []event.ProcessRef   `json:"procs,omitempty"`
	Retired bool                 `json:"retired,omitempty"`
}

// A RegistryExport is the durable form of the whole context registry.
type RegistryExport struct {
	NextID   int             `json:"nextId"`
	Contexts []ContextExport `json:"contexts,omitempty"`
}

// Export snapshots the registry, including retired contexts (their ids
// stay burned) and the id counter.
func (r *Registry) Export() (RegistryExport, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := RegistryExport{NextID: r.nextID}
	ids := make([]string, 0, len(r.contexts))
	for id := range r.contexts {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		c := r.contexts[id]
		ce := ContextExport{
			ID:      c.id,
			Name:    c.name,
			Schema:  c.schema,
			Procs:   append([]event.ProcessRef(nil), c.procs...),
			Retired: c.retired,
		}
		if len(c.fields) > 0 {
			ce.Fields = make(map[string]WireValue, len(c.fields))
			for f, v := range c.fields {
				wv, err := EncodeValue(v)
				if err != nil {
					return RegistryExport{}, fmt.Errorf("core: context %s field %s: %w", c.id, f, err)
				}
				ce.Fields[f] = wv
			}
		}
		out.Contexts = append(out.Contexts, ce)
	}
	return out, nil
}

// Import rebuilds the registry from a snapshot. It must run on a fresh
// registry, before any observers or concurrent use.
func (r *Registry) Import(exp RegistryExport) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.contexts) > 0 {
		return fmt.Errorf("core: Import requires an empty context registry")
	}
	for _, ce := range exp.Contexts {
		if ce.Schema == nil {
			return fmt.Errorf("core: snapshot context %q has no schema", ce.ID)
		}
		c := &Context{
			id:      ce.ID,
			name:    ce.Name,
			schema:  ce.Schema,
			fields:  make(map[string]any, len(ce.Fields)),
			procs:   append([]event.ProcessRef(nil), ce.Procs...),
			retired: ce.Retired,
		}
		for f, wv := range ce.Fields {
			v, err := wv.Decode()
			if err != nil {
				return fmt.Errorf("core: snapshot context %q field %q: %w", ce.ID, f, err)
			}
			c.fields[f] = v
		}
		r.contexts[c.id] = c
		if !c.retired {
			if r.byName[c.name] == nil {
				r.byName[c.name] = make(map[string]*Context)
			}
			r.byName[c.name][c.id] = c
		}
	}
	r.nextID = exp.NextID
	return nil
}

// Serial returns the context id counter: ctx-(Serial()+1) is the next
// id to be assigned. The enactment journal records it before each
// operation so replay reproduces the exact ids.
func (r *Registry) Serial() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.nextID
}

// SetSerial forces the context id counter; only replay uses it.
func (r *Registry) SetSerial(n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID = n
}

func contextInScope(c *Context, scope event.ProcessRef) bool {
	for _, p := range c.procs {
		if p == scope {
			return true
		}
		// A scope naming only a schema (no instance) matches any
		// instance of that schema.
		if scope.InstanceID == "" && p.SchemaID == scope.SchemaID {
			return true
		}
	}
	return false
}
