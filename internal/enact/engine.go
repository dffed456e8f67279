// Package enact implements the Coordination Model (CM) side of CMI: a
// coordination engine that instantiates CMM process schemas, drives
// activity state transitions through each activity's state schema, fires
// dependency rules, maintains participant worklists, and emits the
// primitive activity state change events that feed the Awareness Engine
// (paper Sections 3, 4 and 6.3).
//
// CORE enumerates the possible activity states and transitions but does
// not define how and when a transition occurs; this package supplies the
// operations that cause transitions (Start, Complete, Terminate, Suspend,
// Resume), subprocess invocation, and automatic process completion.
package enact

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/mcc-cmi/cmi/internal/core"
	"github.com/mcc-cmi/cmi/internal/event"
	"github.com/mcc-cmi/cmi/internal/obs"
	"github.com/mcc-cmi/cmi/internal/vclock"
)

// A ProcessInstance is one running instance of a process schema.
type ProcessInstance struct {
	id     string
	schema *core.ProcessSchema
	state  core.State

	// parent links for subprocess invocations. A subprocess instance
	// shares its id with the invoking activity instance: "the activity
	// is a process".
	parentProc *ProcessInstance
	parentVar  string

	// root is the id of the top-level ancestor: every instance of one
	// process family (a top-level process plus all its nested
	// subprocesses) shares a root and therefore a lock stripe. Both are
	// fixed at creation — instances never migrate between stripes.
	root   string
	stripe int

	acts      map[string][]*ActivityInstance // activity variable -> instances, creation order
	byID      []*ActivityInstance            // every instance, ascending id: the monitor's row order
	ctxIDs    map[string]string              // context variable -> context id
	ownedCtxs []string                       // contexts created by this instance
	cancelled map[string]bool                // activity variables cancelled by DepCancel
	initiator string

	// Instance-level dynamic change (see dynamic.go): activity
	// variables and dependencies added to this instance only.
	extraActs []core.ActivityVariable
	extraDeps []core.Dependency
}

// ID returns the process instance id.
func (p *ProcessInstance) ID() string { return p.id }

// Schema returns the process schema.
func (p *ProcessInstance) Schema() *core.ProcessSchema { return p.schema }

// Ref returns the (schema id, instance id) pair identifying this instance.
func (p *ProcessInstance) Ref() event.ProcessRef {
	return event.ProcessRef{SchemaID: p.schema.Name, InstanceID: p.id}
}

// An ActivityInstance is one instance of an activity variable within a
// process instance.
type ActivityInstance struct {
	id       string
	varName  string
	schema   core.ActivitySchema
	proc     *ProcessInstance
	state    core.State
	assignee string
	child    *ProcessInstance // set when a subprocess invocation has started
	openAt   int              // 1 + position in the stripe's open index; 0 when not open
}

// ID returns the activity instance id.
func (a *ActivityInstance) ID() string { return a.id }

// VarName returns the activity variable the instance was created from.
func (a *ActivityInstance) VarName() string { return a.varName }

// Process returns the owning process instance.
func (a *ActivityInstance) Process() *ProcessInstance { return a.proc }

// IsSubprocess reports whether the activity invokes a process schema.
func (a *ActivityInstance) IsSubprocess() bool {
	_, ok := a.schema.(*core.ProcessSchema)
	return ok
}

// stripe is one enactment lock stripe. mu serializes state mutation and
// WAL staging for the process families mapped to the stripe; emitMu
// serializes observer callbacks for those families, so each family's
// events are delivered in operation order while unrelated families
// deliver concurrently. open is the stripe's share of the open-work
// index: the activity instances of its families whose state isActive —
// what a worklist read visits instead of every instance ever created.
// It is guarded by mu and written only by setActState.
type stripe struct {
	mu     sync.Mutex
	emitMu sync.Mutex
	open   []*ActivityInstance
}

// Engine is the coordination engine. It is safe for concurrent use.
// State is partitioned into lock stripes by process family (the
// top-level ancestor instance): operations on unrelated families run
// concurrently, while all operations on one family serialize on its
// stripe and emit their events in operation order. With a single stripe
// (the New default) the engine behaves exactly like the historical
// globally-locked engine: every event is emitted in total (stamp) order
// after the originating operation's lock is released.
type Engine struct {
	clock    vclock.Clock
	schemas  *core.SchemaRegistry
	dir      *core.Directory
	contexts *core.Registry

	stripes []*stripe

	// idx guards the instance indexes and observer list. Instance
	// *fields* are guarded by the owning family's stripe; idx only makes
	// the id -> instance maps safe to read while other stripes insert.
	idx        sync.RWMutex
	procs      map[string]*ProcessInstance
	activities map[string]*ActivityInstance
	observers  []event.Consumer
	ctxFam     map[string]string // context id -> creating family root

	// Id counters are global atomics so ids stay dense and unique across
	// stripes; each operation journals the ids it actually drew (see
	// pending), which replay reuses instead of re-deriving them.
	nextProc atomic.Int64
	nextAct  atomic.Int64

	// openActs is the size of the open-work index summed over stripes,
	// kept beside it so the gauge samples it without taking stripe locks.
	openActs atomic.Int64

	// Write-ahead logging (wal.go, recover.go). wal is nil until
	// AttachWAL, which installs it while holding every stripe lock so
	// stripe-locked operations read it without further synchronization;
	// replaying is set for the duration of Recover so that re-executed
	// operations skip performer checks and journaling.
	wal        *WAL
	snapPath   string
	snapEvery  int
	replaying  atomic.Bool
	compacting atomic.Bool
	// compactMu orders the start of an asynchronous compaction against
	// CloseWAL, which refuses new ones and waits on compactWG for the one
	// in flight — nothing writes the state dir after CloseWAL returns.
	compactMu sync.Mutex
	compactWG sync.WaitGroup
	walClosed bool

	metrics atomic.Pointer[enactMetrics]
}

// enactMetrics holds the engine's metric series; the atomic pointer is
// nil until Instrument. Per-stripe counters are resolved once so the
// lock path does not take the metric registry's label lock per op.
type enactMetrics struct {
	transitions     *obs.CounterVec
	stripeOps       []*obs.Counter
	stripeContended []*obs.Counter
	multiOps        *obs.Counter
	globalOps       *obs.Counter
}

// Instrument registers the engine's metric series: state transitions
// labelled by target state, held process/activity instance counts and
// the open-work index size sampled at exposition time, and the stripe
// contention counters. A nil registry is a no-op; call before driving
// processes.
func (e *Engine) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	n := len(e.stripes)
	m := &enactMetrics{
		transitions: reg.CounterVec("cmi_enact_transitions_total",
			"Activity and process state transitions by target state.", "state"),
		stripeOps:       make([]*obs.Counter, n),
		stripeContended: make([]*obs.Counter, n),
		multiOps: reg.Counter("cmi_enact_stripe_multi_total",
			"Operations that locked several stripes in order (cross-family input contexts)."),
		globalOps: reg.Counter("cmi_enact_stripe_global_total",
			"Operations that fell back to the global all-stripe lock."),
	}
	opsVec := reg.CounterVec("cmi_enact_stripe_ops_total",
		"Operations executed per enactment lock stripe.", "stripe")
	conVec := reg.CounterVec("cmi_enact_stripe_contended_total",
		"Stripe lock acquisitions that had to wait for another operation.", "stripe")
	for i := 0; i < n; i++ {
		lbl := strconv.Itoa(i)
		m.stripeOps[i] = opsVec.With(lbl)
		m.stripeContended[i] = conVec.With(lbl)
	}
	e.metrics.Store(m)
	reg.GaugeFunc("cmi_enact_stripes",
		"Configured enactment lock stripes.",
		func() float64 { return float64(n) })
	reg.GaugeFunc("cmi_enact_processes",
		"Process instances held by the coordination engine.",
		func() float64 {
			e.idx.RLock()
			defer e.idx.RUnlock()
			return float64(len(e.procs))
		})
	reg.GaugeFunc("cmi_enact_activities",
		"Activity instances held by the coordination engine (open and closed).",
		func() float64 {
			e.idx.RLock()
			defer e.idx.RUnlock()
			return float64(len(e.activities))
		})
	reg.GaugeFunc("cmi_enact_open_activities",
		"Activity instances in the open-work index (not closed): what a worklist read visits.",
		func() float64 { return float64(e.openActs.Load()) })
}

// countTransition records one transition in the by-state counter family.
func (e *Engine) countTransition(to core.State) {
	if m := e.metrics.Load(); m != nil {
		m.transitions.With(string(to)).Inc()
	}
}

// New returns a coordination engine over the given clock, schema registry,
// directory and context registry, with a single lock stripe (all
// operations serialize, events in total stamp order).
func New(clock vclock.Clock, schemas *core.SchemaRegistry, dir *core.Directory, contexts *core.Registry) *Engine {
	return NewStriped(clock, schemas, dir, contexts, 1)
}

// maxStripes bounds the stripe count: beyond this, per-stripe state and
// the all-stripe lock path cost more than the parallelism is worth.
const maxStripes = 64

// NewStriped returns a coordination engine whose lock is striped by
// process family across the given number of stripes (clamped to
// [1, 64]). Operations on process families mapped to different stripes
// execute and emit concurrently.
func NewStriped(clock vclock.Clock, schemas *core.SchemaRegistry, dir *core.Directory, contexts *core.Registry, stripes int) *Engine {
	if stripes < 1 {
		stripes = 1
	}
	if stripes > maxStripes {
		stripes = maxStripes
	}
	e := &Engine{
		clock:      clock,
		schemas:    schemas,
		dir:        dir,
		contexts:   contexts,
		stripes:    make([]*stripe, stripes),
		procs:      make(map[string]*ProcessInstance),
		activities: make(map[string]*ActivityInstance),
		ctxFam:     make(map[string]string),
	}
	for i := range e.stripes {
		e.stripes[i] = &stripe{}
	}
	return e
}

// Stripes returns the number of lock stripes.
func (e *Engine) Stripes() int { return len(e.stripes) }

// familyStripe maps a family root id to a stripe index with FNV-1a.
func familyStripe(root string, stripes int) int {
	if stripes <= 1 || root == "" {
		return 0
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(root); i++ {
		h ^= uint64(root[i])
		h *= prime64
	}
	return int(h % uint64(stripes))
}

// stripeOf returns the stripe index for a family root id.
func (e *Engine) stripeOf(root string) int {
	return familyStripe(root, len(e.stripes))
}

// held records which stripe locks an operation acquired; unlock releases
// them. Multi-stripe and all-stripe acquisitions always lock in
// ascending stripe order, so overlapping operations cannot deadlock.
type held struct {
	e     *Engine
	one   int
	multi []int // ascending; nil for single-stripe holds
	all   bool
}

// acquireStripe locks one stripe, counting the acquisition (and whether
// it had to wait) when metrics are on and m is non-nil.
func (e *Engine) acquireStripe(i int, m *enactMetrics) {
	st := e.stripes[i]
	if m == nil {
		st.mu.Lock()
		return
	}
	if !st.mu.TryLock() {
		m.stripeContended[i].Inc()
		st.mu.Lock()
	}
	m.stripeOps[i].Inc()
}

func (e *Engine) lockStripe(i int) held {
	e.acquireStripe(i, e.metrics.Load())
	return held{e: e, one: i}
}

// lockMulti locks the given ascending, deduplicated stripe indexes.
func (e *Engine) lockMulti(idxs []int) held {
	m := e.metrics.Load()
	if m != nil {
		m.multiOps.Inc()
	}
	for _, i := range idxs {
		e.acquireStripe(i, m)
	}
	return held{e: e, multi: idxs}
}

// lockAll locks every stripe in ascending order. It is the global
// escape hatch (unknown lock targets), and what cross-family readers
// (Worklist, ProcessInfos, snapshot export) use to get a consistent view.
func (e *Engine) lockAll() held {
	for i := range e.stripes {
		e.acquireStripe(i, nil)
	}
	return held{e: e, all: true}
}

// lockAllFallback is lockAll for operations that could not determine
// their stripe set; it counts the fallback.
func (e *Engine) lockAllFallback() held {
	if m := e.metrics.Load(); m != nil {
		m.globalOps.Inc()
	}
	return e.lockAll()
}

func (h held) unlock() {
	switch {
	case h.all:
		for _, st := range h.e.stripes {
			st.mu.Unlock()
		}
	case h.multi != nil:
		for _, i := range h.multi {
			h.e.stripes[i].mu.Unlock()
		}
	default:
		h.e.stripes[h.one].mu.Unlock()
	}
}

// proc looks up a process instance in the index. The instance's fields
// are only stable under its family's stripe lock; the stripe and root
// fields are immutable and may be read freely.
func (e *Engine) proc(id string) (*ProcessInstance, bool) {
	e.idx.RLock()
	defer e.idx.RUnlock()
	pi, ok := e.procs[id]
	return pi, ok
}

func (e *Engine) act(id string) (*ActivityInstance, bool) {
	e.idx.RLock()
	defer e.idx.RUnlock()
	ai, ok := e.activities[id]
	return ai, ok
}

func (e *Engine) addProc(pi *ProcessInstance) {
	e.idx.Lock()
	e.procs[pi.id] = pi
	e.idx.Unlock()
}

func (e *Engine) addAct(ai *ActivityInstance) {
	e.idx.Lock()
	e.activities[ai.id] = ai
	e.idx.Unlock()
}

// insertAct files a new activity instance under its variable (creation
// order) and into the id-ordered row list; ids are unique, so the binary
// search only ever finds an insertion point.
func (pi *ProcessInstance) insertAct(ai *ActivityInstance) {
	pi.acts[ai.varName] = append(pi.acts[ai.varName], ai)
	i, _ := slices.BinarySearchFunc(pi.byID, ai.id, func(a *ActivityInstance, id string) int {
		return strings.Compare(a.id, id)
	})
	pi.byID = slices.Insert(pi.byID, i, ai)
}

// setActState is the one place an activity instance's state is written
// — live transitions, WAL replay and snapshot import all come through
// here — so the open-work index cannot drift from the states it indexes.
// The instance enters its stripe's index when it becomes active and
// leaves (swap-remove) when it closes. Must be called with the owning
// stripe locked. The assignee is not routed through here: membership is
// a function of state alone, and Worklist reads the assignee (like the
// roles) at read time.
func (e *Engine) setActState(ai *ActivityInstance, to core.State) {
	ai.state = to
	st := e.stripes[ai.proc.stripe]
	open := isActive(ai.schema.States(), to)
	switch {
	case open && ai.openAt == 0:
		st.open = append(st.open, ai)
		ai.openAt = len(st.open)
		e.openActs.Add(1)
	case !open && ai.openAt != 0:
		last := len(st.open) - 1
		moved := st.open[last]
		st.open[ai.openAt-1] = moved
		moved.openAt = ai.openAt
		st.open[last] = nil
		st.open = st.open[:last]
		ai.openAt = 0
		e.openActs.Add(-1)
	}
}

func (e *Engine) setCtxFam(ctxID, root string) {
	e.idx.Lock()
	e.ctxFam[ctxID] = root
	e.idx.Unlock()
}

// planProc resolves the stripe of a process-keyed operation and locks
// it, returning the family root for the journal record. An unknown id
// cannot be mapped to a stripe, so it falls back to the all-stripe lock;
// the operation then re-resolves under the lock and reports the error.
func (e *Engine) planProc(id string) (held, string) {
	if pi, ok := e.proc(id); ok {
		return e.lockStripe(pi.stripe), pi.root
	}
	return e.lockAllFallback(), ""
}

func (e *Engine) planAct(id string) (held, string) {
	if ai, ok := e.act(id); ok {
		return e.lockStripe(ai.proc.stripe), ai.proc.root
	}
	return e.lockAllFallback(), ""
}

// Observe registers a consumer for primitive activity state change events.
func (e *Engine) Observe(c event.Consumer) {
	e.idx.Lock()
	defer e.idx.Unlock()
	e.observers = append(e.observers, c)
}

// replaySrc feeds one journal record's captured nondeterminism back into
// the re-executed operation: guard outcomes, and (for v2 records) the
// exact process/activity/context ids the original execution drew.
// Legacy records instead force the global counters before re-execution
// (sequential replay only).
type replaySrc struct {
	legacy bool
	pid    int
	aids   []int
	cids   []int
	guards []bool
}

// pending accumulates the side effects produced while the stripe lock is
// held: events to deliver to observers, contexts to retire, guard
// outcomes, and the ids the operation drew from the global counters
// (journaled so replay reuses them). Events and retirements are executed
// after the lock is released — events first, then retirements, so that a
// scoped role referenced by an awareness detection triggered by its own
// scope's closing events is still resolvable at detection time
// (Section 5: the delivery role is resolved at composite event detection
// time).
type pending struct {
	events []event.Event
	retire []string
	guards []bool
	pid    int
	aids   []int
	cids   []int
	src    *replaySrc
}

// bumpMax raises a to at least n.
func bumpMax(a *atomic.Int64, n int64) {
	for {
		cur := a.Load()
		if cur >= n || a.CompareAndSwap(cur, n) {
			return
		}
	}
}

// allocProcID draws the next process id — from the replay source when
// re-executing a v2 record, from the global counter otherwise.
func (e *Engine) allocProcID(p *pending) string {
	if p.src != nil && !p.src.legacy && p.src.pid > 0 {
		n := p.src.pid
		p.src.pid = 0
		bumpMax(&e.nextProc, int64(n))
		return fmt.Sprintf("p-%d", n)
	}
	n := e.nextProc.Add(1)
	p.pid = int(n)
	return fmt.Sprintf("p-%d", n)
}

// allocActID draws the next activity id (see allocProcID).
func (e *Engine) allocActID(p *pending) string {
	if p.src != nil && !p.src.legacy && len(p.src.aids) > 0 {
		n := p.src.aids[0]
		p.src.aids = p.src.aids[1:]
		bumpMax(&e.nextAct, int64(n))
		return fmt.Sprintf("a-%d", n)
	}
	n := e.nextAct.Add(1)
	p.aids = append(p.aids, int(n))
	return fmt.Sprintf("a-%d", n)
}

// createContext creates a context owned by the given family — at its
// recorded serial during v2 replay, at the next serial otherwise — and
// indexes its creating family for stripe planning.
func (e *Engine) createContext(p *pending, root string, schema *core.ResourceSchema, ref event.ProcessRef) (*core.Context, error) {
	var ctx *core.Context
	var err error
	if p.src != nil && !p.src.legacy && len(p.src.cids) > 0 {
		n := p.src.cids[0]
		p.src.cids = p.src.cids[1:]
		ctx, err = e.contexts.CreateAt(n, schema, ref)
	} else {
		ctx, err = e.contexts.Create(schema, ref)
		if err == nil {
			if n, ok := ctxSerial(ctx.ID()); ok {
				p.cids = append(p.cids, n)
			}
		}
	}
	if err != nil {
		return nil, err
	}
	e.setCtxFam(ctx.ID(), root)
	return ctx, nil
}

// ctxSerial extracts N from a "ctx-N" context id.
func ctxSerial(id string) (int, bool) {
	s := strings.TrimPrefix(id, "ctx-")
	if s == id {
		return 0, false
	}
	n, err := strconv.Atoi(s)
	return n, err == nil
}

// flush delivers an operation's side effects under its family's emit
// lock: families on different stripes deliver concurrently, one family's
// batches serialize.
func (e *Engine) flush(p *pending, emit int) {
	if len(p.events) == 0 && len(p.retire) == 0 {
		return
	}
	e.idx.RLock()
	observers := append([]event.Consumer(nil), e.observers...)
	e.idx.RUnlock()
	st := e.stripes[emit]
	st.emitMu.Lock()
	defer st.emitMu.Unlock()
	for _, ev := range p.events {
		for _, o := range observers {
			o.Consume(ev)
		}
	}
	for _, ctxID := range p.retire {
		_ = e.contexts.Retire(ctxID) // already-retired contexts are fine
	}
}

// emitActivity records one activity state change event. Must be called
// with the owning stripe locked.
func (e *Engine) emitActivity(p *pending, ai *ActivityInstance, old, new core.State, user string) {
	change := event.ActivityChange{
		ActivityInstanceID: ai.id,
		User:               user,
		OldState:           string(old),
		NewState:           string(new),
	}
	if ai.proc != nil {
		change.ParentProcessSchemaID = ai.proc.schema.Name
		change.ParentProcessInstanceID = ai.proc.id
		change.ActivityVariableID = ai.varName
	}
	if ps, ok := ai.schema.(*core.ProcessSchema); ok {
		change.ActivityProcessSchemaID = ps.Name
	}
	p.events = append(p.events, event.NewActivity(e.clock.Next(), "coordination-engine", change))
	e.countTransition(new)
}

// emitProcess records a state change of a process instance itself. For a
// nested process the parent fields name the invoking process and activity
// variable; for a top-level process they are absent (Section 5.1.1).
func (e *Engine) emitProcess(p *pending, pi *ProcessInstance, old, new core.State, user string) {
	change := event.ActivityChange{
		ActivityInstanceID:      pi.id,
		User:                    user,
		ActivityProcessSchemaID: pi.schema.Name,
		OldState:                string(old),
		NewState:                string(new),
	}
	if pi.parentProc != nil {
		change.ParentProcessSchemaID = pi.parentProc.schema.Name
		change.ParentProcessInstanceID = pi.parentProc.id
		change.ActivityVariableID = pi.parentVar
	}
	p.events = append(p.events, event.NewActivity(e.clock.Next(), "coordination-engine", change))
	e.countTransition(new)
}

// stageHeld journals a successful operation: the record gets the family
// root, the ids and guard outcomes the operation captured, and joins the
// open commit group. Must be called with the operation's stripes still
// locked, so the journal's global sequence is a legal linearization:
// records of one family appear in that family's operation order. The
// returned handle's wait() lands the group; when no WAL is attached (or
// the engine is replaying) it waits for nothing.
func (e *Engine) stageHeld(p *pending, fam string, rec *walRecord) (walCommit, error) {
	if e.wal == nil || e.replaying.Load() {
		return walCommit{}, nil
	}
	rec.NP = int(e.nextProc.Load())
	rec.NA = int(e.nextAct.Load())
	rec.NC = e.contexts.Serial()
	rec.Fam = fam
	rec.PID = p.pid
	rec.AIDs = p.aids
	rec.CIDs = p.cids
	if len(p.guards) > 0 {
		rec.G = append([]bool(nil), p.guards...)
	}
	return e.wal.stage(rec)
}

// finish waits for the operation's commit group and then flushes its
// pending side effects. On commit error the side effects are dropped:
// the in-memory change stands but is never announced — whether it
// survives is decided by the journal on restart (accept-then-commit,
// like the delivery journal).
func (e *Engine) finish(c walCommit, p *pending, emit int) error {
	if err := c.wait(); err != nil {
		return err
	}
	e.flush(p, emit)
	e.maybeCompact()
	return nil
}

// runHeld executes one state-changing operation under the already-held
// stripes, journals it on success, and flushes its events after the
// commit lands. On operation error the partial events are still flushed
// (matching the engine's historical behavior) and nothing is journaled.
func (e *Engine) runHeld(h held, fam string, rec *walRecord, src *replaySrc, op func(p *pending) error) error {
	p := pending{src: src}
	err := op(&p)
	var c walCommit
	var serr error
	if err == nil {
		c, serr = e.stageHeld(&p, fam, rec)
	}
	h.unlock()
	emit := e.stripeOf(fam)
	if err != nil {
		e.flush(&p, emit)
		return err
	}
	if serr != nil {
		return serr
	}
	return e.finish(c, &p, emit)
}

// runProc runs a process-keyed operation under its family's stripe.
func (e *Engine) runProc(processID string, rec *walRecord, src *replaySrc, op func(p *pending) error) error {
	h, fam := e.planProc(processID)
	return e.runHeld(h, fam, rec, src, op)
}

// runAct runs an activity-keyed operation under its family's stripe.
func (e *Engine) runAct(activityID string, rec *walRecord, src *replaySrc, op func(p *pending) error) error {
	h, fam := e.planAct(activityID)
	return e.runHeld(h, fam, rec, src, op)
}

// StartOptions configures process instantiation.
type StartOptions struct {
	// Initiator is recorded as the user on the start events.
	Initiator string
	// InputContexts binds existing context instances to input context
	// resource variables of the schema (context var name -> context id).
	InputContexts map[string]string
}

// StartProcess instantiates the named process schema as a top-level
// process: the instance's own state runs Uninitialized -> Ready ->
// Running, contexts are created for the schema's local/output context
// variables, and the entry activities become Ready.
func (e *Engine) StartProcess(schemaName string, opts StartOptions) (*ProcessInstance, error) {
	return e.startProcess(schemaName, opts, nil)
}

func (e *Engine) startProcess(schemaName string, opts StartOptions, src *replaySrc) (*ProcessInstance, error) {
	schema, ok := e.schemas.Process(schemaName)
	if !ok {
		return nil, fmt.Errorf("enact: unknown process schema %q: %w", schemaName, core.ErrNotFound)
	}
	rec := &walRecord{Kind: walStartProcess, Schema: schemaName, User: opts.Initiator}
	if len(opts.InputContexts) > 0 {
		rec.Inputs = make(map[string]string, len(opts.InputContexts))
		for k, v := range opts.InputContexts {
			rec.Inputs[k] = v
		}
	}
	p := pending{src: src}
	// The id is drawn before locking: the new family's stripe is a
	// function of its root id. A failed start burns the id, exactly as
	// the historical engine did.
	id := e.allocProcID(&p)
	h := e.planStart(id, opts)
	pi, err := e.startProcessLocked(&p, schema, nil, id, "", opts)
	var c walCommit
	var serr error
	if err == nil {
		c, serr = e.stageHeld(&p, id, rec)
	}
	h.unlock()
	if err != nil {
		return nil, err
	}
	if serr != nil {
		return nil, serr
	}
	if err := e.finish(c, &p, e.stripeOf(id)); err != nil {
		return nil, err
	}
	return pi, nil
}

// planStart locks the stripe set of a top-level start: the new family's
// own stripe, plus — when input contexts are bound — the stripes of the
// families that created those contexts. Holding the creators' stripes
// guarantees the start record is staged after the records that created
// the contexts, so journal order remains a legal linearization. A
// context whose creating family is unknown (created directly on the
// registry) falls back to the all-stripe lock.
func (e *Engine) planStart(id string, opts StartOptions) held {
	own := e.stripeOf(id)
	if len(e.stripes) == 1 || len(opts.InputContexts) == 0 {
		return e.lockStripe(own)
	}
	need := []int{own}
	known := true
	e.idx.RLock()
	for _, ctxID := range opts.InputContexts {
		fam, ok := e.ctxFam[ctxID]
		if !ok {
			known = false
			break
		}
		need = append(need, e.stripeOf(fam))
	}
	e.idx.RUnlock()
	if !known {
		return e.lockAllFallback()
	}
	sort.Ints(need)
	uniq := need[:1]
	for _, i := range need[1:] {
		if i != uniq[len(uniq)-1] {
			uniq = append(uniq, i)
		}
	}
	if len(uniq) == 1 {
		return e.lockStripe(uniq[0])
	}
	return e.lockMulti(uniq)
}

// startProcessLocked creates and starts a process instance. When
// parentAct is non-nil the new instance is a subprocess sharing the
// invoking activity instance's id (and its family's root and stripe);
// otherwise id names the pre-drawn top-level instance id.
func (e *Engine) startProcessLocked(p *pending, schema *core.ProcessSchema, parentAct *ActivityInstance, id, user string, opts StartOptions) (*ProcessInstance, error) {
	var parentProc *ProcessInstance
	var parentVar string
	root := id
	stripeIdx := e.stripeOf(id)
	if parentAct != nil {
		id = parentAct.id
		parentProc = parentAct.proc
		parentVar = parentAct.varName
		root = parentProc.root
		stripeIdx = parentProc.stripe
	}
	pi := &ProcessInstance{
		id:         id,
		schema:     schema,
		state:      schema.States().Initial(),
		parentProc: parentProc,
		parentVar:  parentVar,
		root:       root,
		stripe:     stripeIdx,
		acts:       make(map[string][]*ActivityInstance),
		ctxIDs:     make(map[string]string),
		cancelled:  make(map[string]bool),
		initiator:  opts.Initiator,
	}
	// Bind or create context resources.
	for _, rv := range schema.ResourceVars {
		if rv.Schema.Kind != core.ContextResource {
			continue
		}
		if ctxID, ok := opts.InputContexts[rv.Name]; ok {
			if _, found := e.contexts.Get(ctxID); !found {
				return nil, fmt.Errorf("enact: input context %q (variable %q) does not exist", ctxID, rv.Name)
			}
			if err := e.contexts.Associate(ctxID, pi.Ref()); err != nil {
				return nil, err
			}
			pi.ctxIDs[rv.Name] = ctxID
			continue
		}
		if rv.Usage == core.UsageInput {
			return nil, fmt.Errorf("enact: process %q requires an input context for variable %q", schema.Name, rv.Name)
		}
		ctx, err := e.createContext(p, root, rv.Schema, pi.Ref())
		if err != nil {
			return nil, err
		}
		pi.ctxIDs[rv.Name] = ctx.ID()
		pi.ownedCtxs = append(pi.ownedCtxs, ctx.ID())
	}
	e.addProc(pi)

	// Drive the instance's own activity state to Running.
	states := schema.States()
	if err := e.transitionProcessLocked(p, pi, e.defaultTarget(states, pi.state, core.Ready), user); err != nil {
		return nil, err
	}
	if err := e.transitionProcessLocked(p, pi, e.defaultTarget(states, pi.state, core.Running), user); err != nil {
		return nil, err
	}

	// Entry activities become Ready.
	for _, name := range schema.EntryActivities() {
		av, _ := schema.Activity(name)
		if _, err := e.instantiateActivityLocked(p, pi, av, user); err != nil {
			return nil, err
		}
	}
	return pi, nil
}

// defaultTarget picks the leaf state to move to for a generic intent
// (Ready, Running, Suspended, Completed, Terminated), respecting
// application-specific refinement: the first legal leaf (in sorted order)
// lying under the intended generic state.
func (e *Engine) defaultTarget(states *core.StateSchema, from core.State, intent core.State) core.State {
	for _, leaf := range states.Leaves() {
		if states.Legal(from, leaf) && states.IsSubstateOf(leaf, intent) {
			return leaf
		}
	}
	return intent // will fail validation downstream with a clear error
}

func (e *Engine) transitionProcessLocked(p *pending, pi *ProcessInstance, to core.State, user string) error {
	states := pi.schema.States()
	if !states.Legal(pi.state, to) {
		return fmt.Errorf("enact: process %s: illegal transition %s -> %s", pi.id, pi.state, to)
	}
	old := pi.state
	pi.state = to
	e.emitProcess(p, pi, old, to, user)
	return nil
}

// instantiateActivityLocked creates an instance of the activity variable
// and moves it Uninitialized -> Ready.
func (e *Engine) instantiateActivityLocked(p *pending, pi *ProcessInstance, av core.ActivityVariable, user string) (*ActivityInstance, error) {
	ai := &ActivityInstance{
		id:      e.allocActID(p),
		varName: av.Name,
		schema:  av.Schema,
		proc:    pi,
		state:   av.Schema.States().Initial(),
	}
	to := e.defaultTarget(av.Schema.States(), ai.state, core.Ready)
	if !av.Schema.States().Legal(ai.state, to) {
		// Checked before the instance becomes visible, so a failed
		// instantiation leaves no partial residue behind.
		return nil, fmt.Errorf("enact: activity %s: no legal path from %s to Ready", ai.id, ai.state)
	}
	pi.insertAct(ai)
	e.addAct(ai)
	old := ai.state
	e.setActState(ai, to)
	e.emitActivity(p, ai, old, to, user)
	return ai, nil
}

// Instantiate creates an additional Ready instance of a repeatable
// activity variable — e.g. issuing another lab test (Figure 1).
func (e *Engine) Instantiate(processID, activityVar, user string) (ActivityInfo, error) {
	return e.instantiate(processID, activityVar, user, nil)
}

func (e *Engine) instantiate(processID, activityVar, user string, src *replaySrc) (ActivityInfo, error) {
	var info ActivityInfo
	rec := &walRecord{Kind: walInstantiate, Proc: processID, Var: activityVar, User: user}
	err := e.runProc(processID, rec, src, func(p *pending) error {
		pi, ok := e.proc(processID)
		if !ok {
			return fmt.Errorf("enact: unknown process instance %q: %w", processID, core.ErrNotFound)
		}
		if !isActive(pi.schema.States(), pi.state) {
			return fmt.Errorf("enact: process %s is not running", processID)
		}
		av, ok := pi.activityVar(activityVar)
		if !ok {
			return fmt.Errorf("enact: process %q has no activity variable %q", pi.schema.Name, activityVar)
		}
		if len(pi.acts[av.Name]) > 0 && !av.Repeatable {
			return fmt.Errorf("enact: activity %q is not repeatable", activityVar)
		}
		ai, err := e.instantiateActivityLocked(p, pi, av, user)
		if err != nil {
			return err
		}
		info = snapshot(ai)
		return nil
	})
	if err != nil {
		return ActivityInfo{}, err
	}
	return info, nil
}

// isActive reports whether the state is pending work: not under Closed.
func isActive(states *core.StateSchema, st core.State) bool {
	return !states.IsSubstateOf(st, core.Closed) && st != core.Uninitialized
}

// Instance returns a process instance by id.
func (e *Engine) Instance(id string) (*ProcessInstance, bool) {
	return e.proc(id)
}

// ActivityInfo is a consistent snapshot of one activity instance.
type ActivityInfo struct {
	ID            string
	Var           string
	SchemaName    string
	ProcessID     string
	ProcessSchema string
	State         core.State
	Assignee      string
	IsSubprocess  bool
}

func snapshot(ai *ActivityInstance) ActivityInfo {
	return ActivityInfo{
		ID:            ai.id,
		Var:           ai.varName,
		SchemaName:    ai.schema.SchemaName(),
		ProcessID:     ai.proc.id,
		ProcessSchema: ai.proc.schema.Name,
		State:         ai.state,
		Assignee:      ai.assignee,
		IsSubprocess:  ai.IsSubprocess(),
	}
}

// Activity returns a snapshot of an activity instance by id.
func (e *Engine) Activity(id string) (ActivityInfo, bool) {
	ai, ok := e.act(id)
	if !ok {
		return ActivityInfo{}, false
	}
	h := e.lockStripe(ai.proc.stripe)
	info := snapshot(ai)
	h.unlock()
	return info, true
}

// ContextID returns the context instance bound to the named context
// variable of the process instance.
func (e *Engine) ContextID(processID, contextVar string) (string, bool) {
	pi, ok := e.proc(processID)
	if !ok {
		return "", false
	}
	h := e.lockStripe(pi.stripe)
	id, ok := pi.ctxIDs[contextVar]
	h.unlock()
	return id, ok
}

// ProcessState returns the current state of a process instance.
func (e *Engine) ProcessState(id string) (core.State, bool) {
	pi, ok := e.proc(id)
	if !ok {
		return "", false
	}
	h := e.lockStripe(pi.stripe)
	st := pi.state
	h.unlock()
	return st, true
}

// Instances returns the ids of all process instances, sorted.
func (e *Engine) Instances() []string {
	e.idx.RLock()
	out := make([]string, 0, len(e.procs))
	for id := range e.procs {
		out = append(out, id)
	}
	e.idx.RUnlock()
	sort.Strings(out)
	return out
}

// ProcessInfo summarizes one process instance.
type ProcessInfo struct {
	ID     string
	Schema string
	State  core.State
}

// ProcessInfos returns id, schema and state of every process instance,
// sorted by id, read in one pass under the all-stripe lock: every state
// in the list was current at the same moment.
func (e *Engine) ProcessInfos() []ProcessInfo {
	h := e.lockAll()
	e.idx.RLock()
	out := make([]ProcessInfo, 0, len(e.procs))
	for _, pi := range e.procs {
		out = append(out, ProcessInfo{ID: pi.id, Schema: pi.schema.Name, State: pi.state})
	}
	e.idx.RUnlock()
	h.unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ActivitiesOf returns snapshots of the activity instances of a process
// instance, sorted by instance id.
func (e *Engine) ActivitiesOf(processID string) []ActivityInfo {
	pi, ok := e.proc(processID)
	if !ok {
		return nil
	}
	h := e.lockStripe(pi.stripe)
	defer h.unlock()
	out := make([]ActivityInfo, 0, len(pi.byID))
	for _, ai := range pi.byID {
		out = append(out, snapshot(ai))
	}
	return out
}
