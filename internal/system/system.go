// Package system wires together the CMI engines of the paper's Figure 5
// behind one facade, the System: the CORE engine (schema registry,
// directory, context registry), the Coordination engine, the Awareness
// engine, and the awareness delivery agent with its persistent queues.
// The root package cmi re-exports everything here; this package exists so
// that other internal subsystems (e.g. the federation server) can depend
// on the facade without an import cycle.
package system

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"

	"github.com/mcc-cmi/cmi/internal/adl"
	"github.com/mcc-cmi/cmi/internal/awareness"
	"github.com/mcc-cmi/cmi/internal/core"
	"github.com/mcc-cmi/cmi/internal/delivery"
	"github.com/mcc-cmi/cmi/internal/enact"
	"github.com/mcc-cmi/cmi/internal/event"
	"github.com/mcc-cmi/cmi/internal/fs"
	"github.com/mcc-cmi/cmi/internal/obs"
	"github.com/mcc-cmi/cmi/internal/stream"
	"github.com/mcc-cmi/cmi/internal/vclock"
)

// Config configures a System.
type Config struct {
	// Clock drives all time observed by the system. Nil selects a
	// virtual clock starting at vclock.Epoch, which makes runs
	// deterministic; use vclock.NewSystem() for wall-clock time.
	Clock vclock.Clock
	// StateDir is where persistent delivery queues live. Empty selects
	// a fresh temporary directory (recorded in StateDir() and removed
	// by Close).
	StateDir string
	// DisableReplication turns off per-process-instance operator state
	// replication in the awareness engine. Only for the E8 ablation
	// experiment; never disable it in real use.
	DisableReplication bool
	// Metrics receives every layer's metric series. Nil selects a fresh
	// per-system registry (exposed by Metrics()), so instrumentation is
	// always on; supply a registry to aggregate several systems.
	Metrics *obs.Registry
	// SyncJournal fsyncs every delivery-journal and enactment-WAL commit
	// group, making queued notifications and journaled operations
	// durable against machine crashes rather than only process crashes.
	// Group commit amortizes the fsync across concurrent writers.
	SyncJournal bool
	// SnapshotEvery is the number of enactment journal records between
	// snapshot+truncate compactions, which bound recovery time by live
	// state rather than history length. 0 selects DefaultSnapshotEvery;
	// a negative value disables compaction (the journal only grows).
	SnapshotEvery int
	// StreamBuffer bounds each streaming session's in-memory live
	// buffer, in notifications; past it a slow subscriber degrades to
	// cursor replay from the durable queue instead of growing server
	// memory (stream.Options.SessionBuffer). 0 selects the default.
	StreamBuffer int
	// EnactStripes is the number of lock stripes the enactment engine
	// partitions process families across: operations on unrelated
	// families enact and emit concurrently while sharing one journal.
	// 0 selects GOMAXPROCS (clamped to [1,64]); 1 restores the single
	// global-lock behavior. Recovery replay fans out across the same
	// stripe count.
	EnactStripes int
	// FS is the filesystem every durable log (delivery journals,
	// enactment WAL and snapshot, persisted specs) lives on; nil means
	// the real one. Tests and the chaos oracle inject storage faults
	// here (fs.NewFault).
	FS fs.FS
}

// DefaultSnapshotEvery is the default number of enactment journal
// records between snapshot+truncate compactions.
const DefaultSnapshotEvery = 4096

// ErrStarted marks build-time operations attempted after Start, so
// transports can answer 409 Conflict rather than a generic client
// error.
var ErrStarted = errors.New("system already started")

// System is one CMI enactment system.
type System struct {
	clock    vclock.Clock
	schemas  *core.SchemaRegistry
	dir      *core.Directory
	contexts *core.Registry
	enact    *enact.Engine
	aware    *awareness.Engine
	agent    *delivery.Agent
	store    *delivery.Store
	stream   *stream.Hub

	metrics *obs.Registry
	fsys    fs.FS

	stateDir   string
	ownsState  bool
	recovery   enact.RecoveryStats
	mu         sync.Mutex
	started    bool
	closed     bool
	hasSchemas bool
	closers    []func() error
	specHashes map[string]bool
	specCount  int
}

// AddCloser registers cleanup to run during Close, after outstanding
// follow-on hooks have finished but before the notification store
// closes (so a closer may still flush into it). Closers run in reverse
// registration order.
func (s *System) AddCloser(fn func() error) {
	if fn == nil {
		return
	}
	s.mu.Lock()
	s.closers = append(s.closers, fn)
	s.mu.Unlock()
}

// hookNewStore indirects notification-store construction so tests can
// inject failures (see the temp-dir leak regression test).
var hookNewStore = delivery.NewStoreWith

// New builds a System from the configuration. If the state directory
// holds a previous run's enactment snapshot and write-ahead log, the
// engine state is recovered before the system is returned (see
// Recovery for what the pass found).
func New(cfg Config) (_ *System, err error) {
	clock := cfg.Clock
	if clock == nil {
		clock = vclock.NewVirtual()
	}
	stateDir := cfg.StateDir
	owns := false
	if stateDir == "" {
		d, terr := os.MkdirTemp("", "cmi-state-*")
		if terr != nil {
			return nil, fmt.Errorf("cmi: %w", terr)
		}
		stateDir = d
		owns = true
		// The directory belongs to the system only once construction
		// succeeds; no error path below may leak it.
		defer func() {
			if err != nil {
				os.RemoveAll(d)
			}
		}()
	}
	store, err := hookNewStore(stateDir, delivery.StoreOptions{Sync: cfg.SyncJournal, FS: cfg.FS})
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			store.Close()
		}
	}()
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &System{
		clock:      clock,
		schemas:    core.NewSchemaRegistry(),
		dir:        core.NewDirectory(),
		metrics:    reg,
		fsys:       fs.Or(cfg.FS),
		stateDir:   stateDir,
		ownsState:  owns,
		store:      store,
		specHashes: make(map[string]bool),
	}
	// Process-wide storage counters: every FS implementation (real or
	// fault-injecting) feeds the same atomics, so the series cover all
	// durable logs at once.
	reg.CounterFunc("cmi_fs_syncs_total",
		"File fsyncs issued across all durable logs.",
		func() float64 { return float64(fs.Syncs()) })
	reg.CounterFunc("cmi_fs_sync_failures_total",
		"File fsyncs that returned an error (each poisons its journal).",
		func() float64 { return float64(fs.SyncFailures()) })
	reg.CounterFunc("cmi_fs_dir_syncs_total",
		"Parent-directory fsyncs issued after atomic file replacements.",
		func() float64 { return float64(fs.DirSyncs()) })
	reg.CounterFunc("cmi_fs_injected_faults_total",
		"Storage faults injected by the fault-injecting filesystem (chaos/testing only).",
		func() float64 { return float64(fs.Injected()) })
	s.contexts = core.NewRegistry(clock)
	stripes := cfg.EnactStripes
	if stripes <= 0 {
		stripes = runtime.GOMAXPROCS(0)
	}
	s.enact = enact.NewStriped(clock, s.schemas, s.dir, s.contexts, stripes)
	s.agent = delivery.NewAgent(s.dir, s.contexts, store)
	// The "online" assignment (Section 5.3): deliver only to signed-on
	// players of the role; if nobody is signed on, fall back to the
	// whole role so the persistent queues still capture the information.
	if err = s.agent.RegisterAssignment(AssignOnline, func(users []string, _ event.Event) []string {
		var online []string
		for _, u := range users {
			if s.dir.SignedOn(u) {
				online = append(online, u)
			}
		}
		if len(online) == 0 {
			return users
		}
		return online
	}); err != nil {
		return nil, err
	}
	s.aware = awareness.NewEngine(s.agent, awareness.Options{
		DisableReplication: cfg.DisableReplication,
		Metrics:            reg,
	})
	s.enact.Instrument(reg)
	s.agent.Instrument(reg)
	store.Instrument(reg)
	// The streaming delivery plane rides the store's group-commit
	// journal: every committed notification batch is broadcast to the
	// participant's live sessions, one commit group = one broadcast.
	s.stream = stream.NewHub(store, stream.Options{SessionBuffer: cfg.StreamBuffer})
	s.stream.Instrument(reg)
	store.OnCommit(s.stream.Broadcast)
	// Crash recovery runs BEFORE the engines are wired to awareness and
	// delivery: replayed operations emit into empty observer lists, so
	// recovery never re-detects and never re-notifies (replay-quiesce by
	// wiring order). The delivery journal's keyed dedup remains the
	// backstop for notifications already enqueued before the crash.
	if err = s.recoverState(cfg, reg); err != nil {
		s.enact.CloseWAL()
		return nil, err
	}
	s.enact.Observe(s.aware)
	s.contexts.Observe(s.aware)
	return s, nil
}

func (s *System) walPath() string      { return filepath.Join(s.stateDir, "enact.wal") }
func (s *System) snapshotPath() string { return filepath.Join(s.stateDir, "enact.snap") }

func specHash(src []byte) string {
	sum := sha256.Sum256(src)
	return hex.EncodeToString(sum[:])
}

// recoverState rebuilds schemas and engine state from the state
// directory, then attaches the write-ahead log so fresh operations are
// journaled. Runs during New, before the engines are observed.
func (s *System) recoverState(cfg Config, reg *obs.Registry) error {
	// The delivery queues load concurrently with the enactment replay:
	// they are independent journals, and preloading here means the first
	// post-startup enqueue or read hits a loaded queue instead of paying
	// the load. Load decodes no notification body: a queue's first read
	// decodes the ones it returns.
	preload := make(chan error, 1)
	go func() { preload <- s.store.Preload() }()
	// Schemas first: journal replay re-executes operations that name
	// them. Specs loaded through LoadSpec are persisted under
	// <StateDir>/specs; programmatic schemas (RegisterProcess) are not
	// and must be re-registered by the application before New.
	specsDir := filepath.Join(s.stateDir, "specs")
	entries, err := os.ReadDir(specsDir)
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("cmi: read persisted specs: %w", err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".adl") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	for _, name := range names {
		src, err := os.ReadFile(filepath.Join(specsDir, name))
		if err != nil {
			return fmt.Errorf("cmi: read persisted spec %s: %w", name, err)
		}
		spec, err := adl.Parse(string(src))
		if err != nil {
			return fmt.Errorf("cmi: recover spec %s: %w", name, err)
		}
		if err := spec.Register(s.schemas); err != nil {
			return fmt.Errorf("cmi: recover spec %s: %w", name, err)
		}
		if len(spec.Awareness) > 0 {
			if err := s.aware.Define(spec.Awareness...); err != nil {
				return fmt.Errorf("cmi: recover spec %s: %w", name, err)
			}
			s.hasSchemas = true
		}
		s.specHashes[specHash(src)] = true
		s.specCount++
	}

	// Snapshot + journal replay into the still-unobserved engine.
	stats, err := s.enact.Recover(s.snapshotPath(), s.walPath())
	if err != nil {
		return err
	}
	s.recovery = stats

	// Fresh records continue the journal from where it left off.
	wal, err := enact.OpenWAL(s.walPath(), enact.WALOptions{Sync: cfg.SyncJournal, Metrics: reg, FS: cfg.FS})
	if err != nil {
		return err
	}
	wal.SetSeq(stats.LastSeq)
	wal.SetBacklog(int64(stats.Replayed + stats.Skipped + stats.Failed))
	snapEvery := cfg.SnapshotEvery
	switch {
	case snapEvery == 0:
		snapEvery = DefaultSnapshotEvery
	case snapEvery < 0:
		snapEvery = 0 // compaction disabled
	}
	if stats.Corrupt {
		// Mid-journal corruption: the replayed prefix is served read-only.
		// Appending would reuse sequence numbers from the unreachable
		// suffix, and compacting would destroy the evidence — poison the
		// WAL and disable compaction; Health (and cmid's boot check)
		// surface the damage.
		wal.Poison(fmt.Errorf("cmi: enactment wal corrupt mid-journal at offset %d; run cmictl fsck %s",
			stats.CorruptOffset, s.stateDir))
		snapEvery = 0
	}
	s.enact.AttachWAL(wal, s.snapshotPath(), snapEvery)

	reg.Histogram("cmi_enact_recovery_seconds",
		"Time to rebuild enactment state from snapshot and journal at startup.", nil).
		Observe(stats.Elapsed)
	reg.Counter("cmi_enact_replayed_records_total",
		"Journal records re-executed during enactment recovery.").
		Add(uint64(stats.Replayed))
	if err := <-preload; err != nil {
		return fmt.Errorf("cmi: preload delivery queues: %w", err)
	}
	return nil
}

// Recovery reports what the enactment recovery pass found when the
// system was built: whether a snapshot was loaded, how many journal
// records were replayed or skipped, and whether a torn journal tail was
// discarded.
func (s *System) Recovery() enact.RecoveryStats { return s.recovery }

// Clock returns the system clock.
func (s *System) Clock() vclock.Clock { return s.clock }

// StateDir returns the directory holding the persistent delivery queues.
func (s *System) StateDir() string { return s.stateDir }

// Schemas exposes the schema registry (CORE engine).
func (s *System) Schemas() *core.SchemaRegistry { return s.schemas }

// Directory exposes the organizational directory (CORE engine).
func (s *System) Directory() *core.Directory { return s.dir }

// Contexts exposes the context registry (CORE engine).
func (s *System) Contexts() *core.Registry { return s.contexts }

// Coordination exposes the coordination engine.
func (s *System) Coordination() *enact.Engine { return s.enact }

// Awareness exposes the awareness engine.
func (s *System) Awareness() *awareness.Engine { return s.aware }

// DeliveryAgent exposes the awareness delivery agent.
func (s *System) DeliveryAgent() *delivery.Agent { return s.agent }

// Store exposes the persistent notification store.
func (s *System) Store() *delivery.Store { return s.store }

// Stream exposes the streaming delivery hub — the push plane the
// federation server serves as GET /api/stream/notifications.
func (s *System) Stream() *stream.Hub { return s.stream }

// RegisterProcess installs a process schema (and everything reachable
// from it).
func (s *System) RegisterProcess(p *core.ProcessSchema) error { return s.schemas.Register(p) }

// DefineAwareness adds awareness schemas. Like LoadSpec it refuses to run
// after Start (ErrStarted): the awareness engine compiles its detection
// graph at Start, so schemas defined later could never arm — and a first
// post-Start definition would flip hasSchemas on a system whose engine
// never started, wedging Health at unhealthy.
func (s *System) DefineAwareness(schemas ...*awareness.Schema) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return fmt.Errorf("cmi: cannot define awareness schemas: %w", ErrStarted)
	}
	if err := s.aware.Define(schemas...); err != nil {
		return err
	}
	s.hasSchemas = true
	return nil
}

// LoadSpec parses ADL source text and installs its process and awareness
// schemas. It may be called several times before Start, but not after:
// the awareness engine compiles its detection graph at Start, so a
// post-Start load would register process schemas whose awareness
// descriptions can never arm. The load is atomic with respect to Start
// and to failure — if any part of the spec cannot be installed, the
// schema registrations already made by this call are rolled back.
func (s *System) LoadSpec(src string) (*adl.Spec, error) {
	spec, err := adl.Parse(src)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return nil, fmt.Errorf("cmi: cannot load a spec: %w", ErrStarted)
	}
	if s.specHashes[specHash([]byte(src))] {
		// This exact source is already installed — recovered from the
		// state directory or loaded earlier this run. Loading it again
		// is a no-op, which lets startup code pass the same spec on
		// every run of a persistent state directory.
		return spec, nil
	}
	before := make(map[string]bool)
	for _, n := range s.schemas.Names() {
		before[n] = true
	}
	rollback := func() {
		var added []string
		for _, n := range s.schemas.Names() {
			if !before[n] {
				added = append(added, n)
			}
		}
		s.schemas.Unregister(added...)
	}
	if err := spec.Register(s.schemas); err != nil {
		rollback() // Register adds transitively, so it can fail part-way
		return nil, err
	}
	if len(spec.Awareness) > 0 {
		if err := s.aware.Define(spec.Awareness...); err != nil {
			rollback()
			return nil, err
		}
		s.hasSchemas = true
	}
	if err := s.persistSpec(src); err != nil {
		rollback()
		return nil, err
	}
	return spec, nil
}

// persistSpec writes the spec source into <StateDir>/specs so a restart
// of the same state directory recovers the schemas before replaying the
// journal. Files are content-addressed; re-persisting the same source
// is a no-op. Called with s.mu held.
func (s *System) persistSpec(src string) error {
	h := specHash([]byte(src))
	if s.specHashes[h] {
		return nil
	}
	dir := filepath.Join(s.stateDir, "specs")
	if err := s.fsys.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("cmi: persist spec: %w", err)
	}
	s.specCount++
	name := fmt.Sprintf("spec-%04d-%s.adl", s.specCount, h[:8])
	// Atomic replace with fsync + parent-dir fsync: recovery replays the
	// journal against these specs, so a spec that vanishes in a crash
	// would strand every journaled operation that names its schemas.
	if err := fs.ReplaceFile(s.fsys, filepath.Join(dir, name), []byte(src), true); err != nil {
		return fmt.Errorf("cmi: persist spec: %w", err)
	}
	s.specHashes[h] = true
	return nil
}

// MustLoadSpec is LoadSpec, panicking on error — for specs embedded as
// program literals.
func (s *System) MustLoadSpec(src string) *adl.Spec {
	spec, err := s.LoadSpec(src)
	if err != nil {
		panic(err)
	}
	return spec
}

// Start launches the awareness engine (if any awareness schemas are
// defined). The coordination engine needs no start.
func (s *System) Start() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return fmt.Errorf("cmi: %w", ErrStarted)
	}
	if s.hasSchemas {
		if err := s.aware.Start(); err != nil {
			return err
		}
	}
	s.started = true
	return nil
}

// Drain stops the awareness engine, guaranteeing every emitted primitive
// event has been fully processed and delivered. The system can not be
// restarted; Drain is for end-of-run inspection.
func (s *System) Drain() {
	s.aware.Stop()
}

// Quiesce blocks until every event emitted before the call has been
// fully processed: detection already runs in-line with event production,
// so this waits for every outstanding follow-on hook (including
// cross-domain forwarders spooling their notifications) to return.
// Unlike Drain it does not stop anything — the system keeps running. The
// federation server exposes it as POST /api/system/quiesce so a
// black-box harness can settle a topology before checking global
// invariants.
func (s *System) Quiesce() {
	s.agent.Wait()
}

// Close drains the awareness engine, waits for outstanding follow-on
// hooks, closes the streaming hub (ending every push session), runs
// registered closers (reverse order), seals the enactment write-ahead
// log, and closes the notification store — in that order: closers may
// still drive journaled operations, a journaled operation's
// notifications must have a store to land in, and no streaming session
// may replay cursors from a store that is closing — never the other way
// round. If the state directory was system-created, it is removed.
// Close is idempotent.
func (s *System) Close() error {
	s.mu.Lock()
	s.closed = true
	closers := s.closers
	s.closers = nil
	s.mu.Unlock()
	s.aware.Stop()
	s.agent.Wait()
	// Streaming sessions stop before anything that might close the store
	// out from under a cursor replay; a stopped hub also releases every
	// blocked SSE handler so an HTTP server drain can finish.
	s.stream.Close()
	var err error
	for i := len(closers) - 1; i >= 0; i-- {
		if cerr := closers[i](); cerr != nil && err == nil {
			err = cerr
		}
	}
	if werr := s.enact.CloseWAL(); err == nil {
		err = werr
	}
	if serr := s.store.Close(); err == nil {
		err = serr
	}
	if s.ownsState {
		os.RemoveAll(s.stateDir)
	}
	return err
}

// Metrics returns the registry holding every layer's metric series.
func (s *System) Metrics() *obs.Registry { return s.metrics }

// Health is a point-in-time liveness snapshot of the system's moving
// parts, served by the federation /api/healthz endpoint.
type Health struct {
	// Healthy is the overall verdict: the system is started, not closed,
	// the notification store accepts appends, the awareness engine runs
	// (or no awareness schemas are defined, so it never started), and no
	// durable log is poisoned or corrupt.
	Healthy bool `json:"healthy"`
	// Started reports Start has been called (and Close has not).
	Started bool `json:"started"`
	// EngineRunning reports the awareness engine is between Start/Stop.
	EngineRunning bool `json:"engineRunning"`
	// StoreOpen reports the notification store accepts appends.
	StoreOpen bool `json:"storeOpen"`
	// PoisonedQueues counts delivery journals permanently refusing
	// appends after a failed commit write or fsync (fsyncgate: the
	// durable suffix is unknown, so no retry on the same descriptor).
	PoisonedQueues int `json:"poisonedQueues,omitempty"`
	// CorruptJournals counts delivery journals with mid-file corruption
	// found at load: served read-only up to the damage, never compacted.
	CorruptJournals int `json:"corruptJournals,omitempty"`
	// WALPoisoned reports the enactment write-ahead log refuses all
	// further operations — after a failed commit, or because recovery
	// found mid-journal corruption (see WALCorrupt).
	WALPoisoned bool `json:"walPoisoned,omitempty"`
	// WALCorrupt reports recovery found mid-journal corruption in the
	// enactment WAL: the state served is the replayed prefix, read-only.
	// Run `cmictl fsck` on the state directory.
	WALCorrupt bool `json:"walCorrupt,omitempty"`
}

// Health reports whether the system's moving parts are live and its
// durable logs intact.
func (s *System) Health() Health {
	s.mu.Lock()
	started, closed, hasSchemas := s.started, s.closed, s.hasSchemas
	s.mu.Unlock()
	h := Health{
		Started:         started && !closed,
		EngineRunning:   s.aware.Running(),
		StoreOpen:       s.store.Open(),
		PoisonedQueues:  s.store.PoisonedQueues(),
		CorruptJournals: s.store.CorruptJournals(),
		WALCorrupt:      s.recovery.Corrupt,
	}
	if w := s.enact.WAL(); w != nil {
		h.WALPoisoned = w.Poisoned()
	}
	h.Healthy = h.Started && h.StoreOpen && (h.EngineRunning || !hasSchemas) &&
		h.PoisonedQueues == 0 && h.CorruptJournals == 0 && !h.WALPoisoned && !h.WALCorrupt
	return h
}

// ---------------------------------------------------------------------
// Directory conveniences.

// AddHuman registers a human participant.
func (s *System) AddHuman(id, name string) error {
	return s.dir.AddParticipant(core.Participant{ID: id, Name: name, Kind: core.Human})
}

// AddProgram registers a program participant.
func (s *System) AddProgram(id, name string) error {
	return s.dir.AddParticipant(core.Participant{ID: id, Name: name, Kind: core.Program})
}

// AssignRole makes a participant play an organizational role.
func (s *System) AssignRole(role, participant string) error {
	return s.dir.AssignRole(role, participant)
}

// SignOn records a participant as present; SignOff removes them. The
// AssignOnline awareness role assignment uses presence (Section 5.3).
func (s *System) SignOn(participant string) error { return s.dir.SignOn(participant) }

// SignOff records a participant as absent.
func (s *System) SignOff(participant string) { s.dir.SignOff(participant) }

// ---------------------------------------------------------------------
// Coordination conveniences.

// StartProcess instantiates the named process schema.
func (s *System) StartProcess(schemaName, initiator string) (*enact.ProcessInstance, error) {
	return s.enact.StartProcess(schemaName, enact.StartOptions{Initiator: initiator})
}

// Worklist returns the participant's current work items.
func (s *System) Worklist(participant string) []enact.WorkItem {
	return s.enact.Worklist(participant)
}

// SetContextField assigns a field of a process instance's context
// resource, producing a context field change event.
func (s *System) SetContextField(processID, contextVar, field string, value any) error {
	ctxID, ok := s.enact.ContextID(processID, contextVar)
	if !ok {
		return fmt.Errorf("cmi: process %q has no context variable %q: %w", processID, contextVar, core.ErrNotFound)
	}
	return s.contexts.SetField(ctxID, field, value)
}

// ContextField reads a field of a process instance's context resource.
func (s *System) ContextField(processID, contextVar, field string) (any, bool) {
	ctxID, ok := s.enact.ContextID(processID, contextVar)
	if !ok {
		return nil, false
	}
	return s.contexts.Field(ctxID, field)
}

// SetScopedRole assigns the participants playing a scoped role held in a
// context field of the process instance.
func (s *System) SetScopedRole(processID, contextVar, field string, participants ...string) error {
	return s.SetContextField(processID, contextVar, field, core.NewRoleValue(participants...))
}

// ---------------------------------------------------------------------
// Awareness delivery conveniences.

// Viewer returns the awareness information viewer for a participant.
func (s *System) Viewer(participant string) *delivery.Viewer {
	return delivery.NewViewer(s.store, participant)
}

// MustViewer returns the participant's pending notifications, panicking
// on store errors — for examples and tests.
func (s *System) MustViewer(participant string) []delivery.Notification {
	ns, err := s.Viewer(participant).Pending()
	if err != nil {
		panic(err)
	}
	return ns
}

// OnDetection registers a follow-on action hook, invoked asynchronously
// after each awareness detection is delivered (Section 6.5's follow-on
// actions). Hooks may safely call back into the system (e.g. to start an
// escalation process).
func (s *System) OnDetection(h delivery.DetectionHook) { s.agent.OnDetection(h) }

// InjectExternal feeds an application-specific external event (Section
// 5.1.1) into the awareness engine — the path by which event sources
// outside the modeled business process (the paper's news-service
// example) reach awareness descriptions that declare an ExternalSource.
func (s *System) InjectExternal(ev event.Event) { s.aware.Consume(ev) }

// NewExternalEvent builds an external event stamped by the system clock.
func (s *System) NewExternalEvent(typ event.Type, source string, params event.Params) event.Event {
	return event.New(typ, s.clock.Next(), source, params)
}

// AssignOnline names the presence-based awareness role assignment: only
// signed-on players of the delivery role receive the information, unless
// none are signed on, in which case everyone does (the queue is
// persistent either way).
const AssignOnline = "online"
