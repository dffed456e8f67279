package enact

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/mcc-cmi/cmi/internal/core"
	"github.com/mcc-cmi/cmi/internal/fs"
	"github.com/mcc-cmi/cmi/internal/wire"
)

// Recovery: rebuild the engine from <StateDir>/enact.snap (the latest
// compaction snapshot, if any) plus the replay of every enact.wal
// record past the snapshot's high-water mark.
//
// Replay re-executes the journaled operations on a fresh engine with
// e.replaying set: performer checks are skipped (the directory is not
// persisted), guard evaluations consume the outcomes recorded in the
// journal, and each operation re-draws the exact ids its record carries
// (v2 records; legacy records instead force the shared id counters) —
// so the recovered instances carry their original ids and every
// recovered state was produced by the engine's own transition logic,
// making it schema-legal by construction. When the engine has more than
// one lock stripe and every record is v2, replay partitions by process
// family across the stripes (see replayParallel); otherwise it is
// strictly sequential. Recovery runs before any observers are wired, so
// replayed operations emit into an empty observer list: awareness
// detection and delivery never see recovered history, and the delivery
// journal's keyed dedup remains the backstop for anything a crash left
// in flight.

const snapshotVersion = 1

// snapFile is the JSON snapshot of the whole engine + context registry.
type snapFile struct {
	Version  int                 `json:"version"`
	LastSeq  int64               `json:"lastSeq"`
	NextProc int                 `json:"nextProc"`
	NextAct  int                 `json:"nextAct"`
	Contexts core.RegistryExport `json:"contexts"`
	Defs     *walSchemaTable     `json:"defs,omitempty"`
	Procs    []snapProc          `json:"procs,omitempty"`
	Acts     []snapAct           `json:"acts,omitempty"`
}

type snapProc struct {
	ID         string              `json:"id"`
	Schema     string              `json:"schema"`
	State      string              `json:"state"`
	ParentProc string              `json:"parentProc,omitempty"`
	ParentVar  string              `json:"parentVar,omitempty"`
	Initiator  string              `json:"initiator,omitempty"`
	CtxIDs     map[string]string   `json:"ctxIds,omitempty"`
	Owned      []string            `json:"owned,omitempty"`
	Cancelled  []string            `json:"cancelled,omitempty"`
	ExtraActs  []walActivityVar    `json:"extraActs,omitempty"`
	ExtraDeps  []walDependency     `json:"extraDeps,omitempty"`
	Acts       map[string][]string `json:"acts,omitempty"` // var -> instance ids, creation order
}

type snapAct struct {
	ID       string `json:"id"`
	Var      string `json:"var"`
	Proc     string `json:"proc"`
	State    string `json:"state"`
	Assignee string `json:"assignee,omitempty"`
	Child    bool   `json:"child,omitempty"`
}

// RecoveryStats summarizes one recovery pass.
type RecoveryStats struct {
	// SnapshotLoaded reports a snapshot file was found and imported;
	// SnapshotSeq is its journal high-water mark.
	SnapshotLoaded bool
	SnapshotSeq    int64
	// Replayed counts journal records re-executed; Skipped counts
	// records at or below the snapshot mark (dropped as already
	// covered); Failed counts records whose replay errored — possible
	// only when an unjournaled partial failure preceded them live.
	Replayed int
	Skipped  int
	Failed   int
	// TornTail reports unparsable trailing journal data was discarded
	// (the torn final write of a crash).
	TornTail bool
	// Corrupt reports mid-journal corruption: the scan stopped at a bad
	// record that still has checksum-valid frames after it — bit-rot or
	// an overwrite inside committed history, not a crashed append.
	// Replay served only the prefix; the suffix is unreachable and the
	// state dir needs `cmictl fsck`. CorruptOffset is the byte offset of
	// the record the scan stopped at.
	Corrupt       bool
	CorruptOffset int64
	// LastSeq is the highest journal sequence observed; fresh records
	// continue from it.
	LastSeq int64
	// Lanes is the number of stripes replay fanned out across; 0 for a
	// sequential pass (single-stripe engine or legacy records present).
	Lanes int
	// Elapsed is the wall time of the recovery pass.
	Elapsed time.Duration
}

// Recover rebuilds the engine from the snapshot and journal at the
// given paths (either may be absent). It must run on a fresh engine,
// before observers are wired and before a WAL is attached.
func (e *Engine) Recover(snapPath, walPath string) (RecoveryStats, error) {
	start := time.Now()
	var stats RecoveryStats
	e.idx.Lock()
	fresh := len(e.procs) == 0 && e.wal == nil
	e.idx.Unlock()
	if !fresh {
		return stats, fmt.Errorf("enact: Recover requires a fresh engine")
	}
	e.replaying.Store(true)
	defer e.replaying.Store(false)

	// The snapshot loads and the journal decodes concurrently — the two
	// files read and parse independently; only state mutation below is
	// ordered (snapshot import, then sequential record application, so
	// the deterministic-replay invariant is untouched).
	type snapResult struct {
		snap *snapFile
		err  error
	}
	snapCh := make(chan snapResult, 1)
	go func() {
		data, err := os.ReadFile(snapPath)
		if err != nil {
			if os.IsNotExist(err) {
				snapCh <- snapResult{}
			} else {
				snapCh <- snapResult{err: fmt.Errorf("enact: read snapshot: %w", err)}
			}
			return
		}
		var snap snapFile
		if err := json.Unmarshal(data, &snap); err != nil {
			snapCh <- snapResult{err: fmt.Errorf("enact: corrupt snapshot %s: %w", snapPath, err)}
			return
		}
		if snap.Version != snapshotVersion {
			snapCh <- snapResult{err: fmt.Errorf("enact: snapshot %s has unsupported version %d", snapPath, snap.Version)}
			return
		}
		snapCh <- snapResult{snap: &snap}
	}()

	recs, scan, walErr := decodeWALRecords(walPath)

	sr := <-snapCh
	if sr.err != nil {
		return stats, sr.err
	}
	if sr.snap != nil {
		if err := e.importSnapshot(sr.snap); err != nil {
			return stats, err
		}
		stats.SnapshotLoaded = true
		stats.SnapshotSeq = sr.snap.LastSeq
		stats.LastSeq = sr.snap.LastSeq
	}
	// A crash between writing enact.snap.tmp and the rename leaves the
	// temp file behind; it is superseded either way.
	_ = os.Remove(snapPath + ".tmp")
	if walErr != nil {
		return stats, walErr
	}
	stats.TornTail = scan.torn
	stats.Corrupt = scan.corrupt
	stats.CorruptOffset = scan.offset
	live := make([]*walRecord, 0, len(recs))
	allV2 := true
	for i := range recs {
		rec := &recs[i]
		if rec.Seq > stats.LastSeq {
			stats.LastSeq = rec.Seq
		}
		if rec.Seq <= stats.SnapshotSeq {
			stats.Skipped++ // covered by the snapshot
			continue
		}
		if !rec.V2 {
			allV2 = false
		}
		live = append(live, rec)
	}
	if len(e.stripes) > 1 && allV2 {
		e.replayParallel(live, &stats)
	} else {
		for _, rec := range live {
			if err := e.applyRecord(rec); err != nil {
				stats.Failed++
				continue
			}
			stats.Replayed++
		}
	}
	stats.Elapsed = time.Since(start)
	return stats, nil
}

// replayParallel re-executes v2 records with unrelated process families
// fanned out across the engine's stripes: each record is queued on its
// family's lane, queues drain concurrently, and within a lane journal
// order is preserved — which is all replay determinism needs, because v2
// records carry their drawn ids and guard outcomes instead of sharing
// forced counters. Records that cannot be partitioned — no family root,
// or a start binding input contexts (whose creating records live on
// other lanes) — act as barriers: every lane drains, the record applies
// alone, then the lanes refill.
func (e *Engine) replayParallel(recs []*walRecord, stats *RecoveryStats) {
	lanes := make([][]*walRecord, len(e.stripes))
	var replayed, failed atomic.Int64
	apply := func(rec *walRecord) {
		if err := e.applyRecord(rec); err != nil {
			failed.Add(1)
		} else {
			replayed.Add(1)
		}
	}
	drain := func() {
		var wg sync.WaitGroup
		for i, lane := range lanes {
			if len(lane) == 0 {
				continue
			}
			lanes[i] = nil
			wg.Add(1)
			go func(lane []*walRecord) {
				defer wg.Done()
				for _, rec := range lane {
					apply(rec)
				}
			}(lane)
		}
		wg.Wait()
	}
	for _, rec := range recs {
		if rec.Fam == "" || (rec.Kind == walStartProcess && len(rec.Inputs) > 0) {
			drain()
			apply(rec)
			continue
		}
		lane := e.stripeOf(rec.Fam)
		lanes[lane] = append(lanes[lane], rec)
	}
	drain()
	stats.Replayed += int(replayed.Load())
	stats.Failed += int(failed.Load())
	stats.Lanes = len(e.stripes)
}

// walScan reports how the journal read ended: clean, at a torn tail
// (the crash artifact replay tolerates), or at mid-journal corruption
// (damage inside committed history, surfaced loudly via RecoveryStats).
type walScan struct {
	torn    bool
	corrupt bool
	offset  int64 // start of the record the scan stopped at
}

// decodeWALRecords reads the journal and decodes every record into
// memory. Raw records are sliced out sequentially (the scanner is
// cheap); decoding — the expensive part of replay — fans out across
// GOMAXPROCS workers in index-ordered chunks, so the returned slice
// preserves journal order for the strictly sequential application pass.
// Decoding stops at the first undecodable record, exactly like the
// sequential replay did: a logical log cannot skip a record and keep
// applying — everything after a torn record is unreachable. A bad
// record with intact frames after it is mid-journal corruption, not a
// torn tail, and is flagged so for the caller.
func decodeWALRecords(walPath string) ([]walRecord, walScan, error) {
	var scan walScan
	data, err := os.ReadFile(walPath)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, scan, nil
		}
		return nil, scan, fmt.Errorf("enact: read wal: %w", err)
	}
	type rawRec struct {
		b     []byte
		frame bool
		off   int64
	}
	var raws []rawRec
	sc := wire.NewScanner(data)
	for {
		off := sc.Offset()
		b, frame, ok := sc.Next()
		if !ok {
			break
		}
		raws = append(raws, rawRec{b, frame, off})
	}
	if sc.Torn() {
		scan.torn = true
		scan.offset = sc.TornOffset()
		scan.corrupt = sc.CorruptMidJournal()
	}
	if len(raws) == 0 {
		return nil, scan, nil
	}
	recs := make([]walRecord, len(raws))
	bad := make([]bool, len(raws))
	decodeOne := func(i int) {
		if raws[i].frame {
			bad[i] = decodeWALRecord(raws[i].b, &recs[i]) != nil
		} else {
			bad[i] = json.Unmarshal(raws[i].b, &recs[i]) != nil
		}
	}
	const chunk = 256
	workers := runtime.GOMAXPROCS(0)
	if workers > (len(raws)+chunk-1)/chunk {
		workers = (len(raws) + chunk - 1) / chunk
	}
	if workers > 1 {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					lo := int(next.Add(chunk)) - chunk
					if lo >= len(raws) {
						return
					}
					hi := lo + chunk
					if hi > len(raws) {
						hi = len(raws)
					}
					for i := lo; i < hi; i++ {
						decodeOne(i)
					}
				}
			}()
		}
		wg.Wait()
	} else {
		for i := range raws {
			decodeOne(i)
		}
	}
	for i := range bad {
		if bad[i] {
			scan.torn = true
			scan.offset = raws[i].off
			// An undecodable record followed by decodable ones is damage
			// inside committed history, not a crashed final append.
			scan.corrupt = scan.corrupt || i < len(raws)-1
			return recs[:i], scan, nil
		}
	}
	return recs, scan, nil
}

// replaySrcOf extracts a record's captured nondeterminism for replay:
// guard outcomes always; for v2 records also the drawn ids, so the
// re-executed operation draws the same values without touching the
// shared counters (the property parallel replay depends on).
func replaySrcOf(rec *walRecord) *replaySrc {
	src := &replaySrc{legacy: !rec.V2, pid: rec.PID}
	if len(rec.G) > 0 {
		src.guards = append([]bool(nil), rec.G...)
	}
	if len(rec.AIDs) > 0 {
		src.aids = append([]int(nil), rec.AIDs...)
	}
	if len(rec.CIDs) > 0 {
		src.cids = append([]int(nil), rec.CIDs...)
	}
	return src
}

// applyRecord re-executes one journaled operation.
func (e *Engine) applyRecord(rec *walRecord) error {
	src := replaySrcOf(rec)
	if src.legacy && rec.Kind != walSetField {
		// Legacy (v1) records do not carry their drawn ids, so force the
		// counters the operation saw; failed (unjournaled) operations may
		// have burned ids in between. Only sound under sequential replay
		// — Recover falls back to it when any legacy record is present.
		e.nextProc.Store(int64(rec.NP))
		e.nextAct.Store(int64(rec.NA))
		e.contexts.SetSerial(rec.NC)
	}
	switch rec.Kind {
	case walStartProcess:
		_, err := e.startProcess(rec.Schema, StartOptions{Initiator: rec.User, InputContexts: rec.Inputs}, src)
		return err
	case walInstantiate:
		_, err := e.instantiate(rec.Proc, rec.Var, rec.User, src)
		return err
	case walAssign:
		return e.assign(rec.Act, rec.User, src)
	case walStart:
		return e.start(rec.Act, rec.User, src)
	case walComplete:
		return e.complete(rec.Act, rec.User, src)
	case walTerminate:
		return e.terminate(rec.Act, rec.User, src)
	case walSuspend:
		return e.suspend(rec.Act, rec.User, src)
	case walResume:
		return e.resume(rec.Act, rec.User, src)
	case walTransition:
		return e.transition(rec.Act, core.State(rec.To), rec.User, src)
	case walTerminateProcess:
		return e.terminateProcess(rec.Proc, rec.User, src)
	case walAddActivity:
		if rec.AV == nil {
			return fmt.Errorf("enact: add_activity record %d has no activity", rec.Seq)
		}
		av, err := newSchemaResolver(rec.Defs, e.schemas).activityVar(*rec.AV)
		if err != nil {
			return err
		}
		_, err = e.addActivity(rec.Proc, av, rec.Enable, rec.User, src)
		return err
	case walAddDependency:
		if rec.Dep == nil {
			return fmt.Errorf("enact: add_dependency record %d has no dependency", rec.Seq)
		}
		d, err := decodeDependency(*rec.Dep)
		if err != nil {
			return err
		}
		return e.addDependency(rec.Proc, d, rec.User, src)
	case walSetField:
		var v any
		if rec.Value != nil {
			var err error
			if v, err = rec.Value.Decode(); err != nil {
				return err
			}
		}
		return e.contexts.SetField(rec.Ctx, rec.Field, v)
	}
	return fmt.Errorf("enact: unknown wal record kind %q (seq %d)", rec.Kind, rec.Seq)
}

// AttachWAL connects the journal to the engine: subsequent operations
// stage records into it, and — when snapEvery > 0 — the engine
// compacts (snapshot to snapPath + journal truncation) each time
// snapEvery records have accumulated since the last snapshot. Attach
// after Recover, before concurrent use. It also installs the context
// registry's SetField logger.
func (e *Engine) AttachWAL(w *WAL, snapPath string, snapEvery int) {
	h := e.lockAll() // all stripes held: no operation can observe a half-installed journal
	e.idx.Lock()
	e.wal = w
	e.snapPath = snapPath
	e.snapEvery = snapEvery
	e.idx.Unlock()
	h.unlock()
	e.contexts.SetLogger(func(ctxID, field string, value any) func() error {
		wv, err := core.EncodeValue(value)
		if err != nil {
			return func() error { return err }
		}
		e.idx.RLock()
		fam := e.ctxFam[ctxID]
		e.idx.RUnlock()
		c, err := w.stage(&walRecord{Kind: walSetField, Ctx: ctxID, Field: field, Value: &wv, Fam: fam})
		if err != nil {
			return func() error { return err }
		}
		return func() error {
			if err := c.wait(); err != nil {
				return err
			}
			e.maybeCompact()
			return nil
		}
	})
	// A replayed backlog (WAL.SetBacklog) may already exceed the
	// threshold; compact it away now instead of waiting for the next
	// write.
	e.maybeCompact()
}

// WAL returns the attached journal, if any.
func (e *Engine) WAL() *WAL {
	e.idx.RLock()
	defer e.idx.RUnlock()
	return e.wal
}

// CloseWAL seals and closes the attached journal: in-flight commit
// groups land, then further state-changing operations fail, and an
// asynchronous compaction still running is waited for. Idempotent; a
// nil-WAL engine is a no-op.
func (e *Engine) CloseWAL() error {
	e.idx.RLock()
	w := e.wal
	e.idx.RUnlock()
	if w == nil {
		return nil
	}
	e.compactMu.Lock()
	e.walClosed = true
	e.compactMu.Unlock()
	err := w.Close()
	e.compactWG.Wait()
	return err
}

// maybeCompact triggers an asynchronous compaction when the journal has
// grown past the snapshot threshold. Single-flight: a compaction
// already running absorbs the growth that triggered this call.
func (e *Engine) maybeCompact() {
	e.idx.RLock()
	w, every := e.wal, e.snapEvery
	e.idx.RUnlock()
	if w == nil || every <= 0 || w.sinceSnap.Load() < int64(every) {
		return
	}
	if !e.compacting.CompareAndSwap(false, true) {
		return
	}
	e.compactMu.Lock()
	if e.walClosed {
		e.compactMu.Unlock()
		e.compacting.Store(false)
		return
	}
	e.compactWG.Add(1)
	e.compactMu.Unlock()
	go func() {
		defer e.compactWG.Done()
		defer e.compacting.Store(false)
		_ = e.Compact() // best effort; the journal simply stays longer
	}()
}

// Compact writes a snapshot of the live state and truncates the journal
// to the records past its high-water mark, bounding recovery time by
// live state rather than history length. Safe to call concurrently with
// operations: the engine pauses while the state is exported; the
// snapshot write and journal rewrite run outside the engine lock.
func (e *Engine) Compact() error {
	start := time.Now()
	h := e.lockAll()
	e.idx.RLock()
	w, snapPath := e.wal, e.snapPath
	e.idx.RUnlock()
	if w == nil {
		h.unlock()
		return fmt.Errorf("enact: no wal attached")
	}
	// With every stripe held no new engine records can stage; Barrier
	// waits for the in-flight ones to land. set_field records may still
	// stage concurrently: those at or below the barrier are visible to
	// the export (the value is written before staging, under the
	// registry lock), later ones survive the truncation and replay
	// idempotently over the snapshot.
	lastSeq := w.Barrier()
	snap, err := e.exportLocked(lastSeq)
	h.unlock()
	if err != nil {
		return err
	}
	data, err := json.Marshal(snap)
	if err != nil {
		return fmt.Errorf("enact: encode snapshot: %w", err)
	}
	// Atomic replace with parent-directory fsync: the snapshot must be
	// durable before TruncateThrough discards the journal records it
	// covers, or a crash between the two loses committed history.
	if err := fs.ReplaceFile(w.fsys, snapPath, data, true); err != nil {
		return fmt.Errorf("enact: install snapshot: %w", err)
	}
	if err := w.TruncateThrough(lastSeq); err != nil {
		return err
	}
	w.observeSnapshot(time.Since(start))
	return nil
}

// exportLocked snapshots the engine (and context registry) state.
// Called with every stripe held (lockAll); takes the index read lock
// itself for the map iteration.
func (e *Engine) exportLocked(lastSeq int64) (*snapFile, error) {
	e.idx.RLock()
	defer e.idx.RUnlock()
	snap := &snapFile{
		Version:  snapshotVersion,
		LastSeq:  lastSeq,
		NextProc: int(e.nextProc.Load()),
		NextAct:  int(e.nextAct.Load()),
		Defs:     &walSchemaTable{},
	}
	ctxExp, err := e.contexts.Export()
	if err != nil {
		return nil, err
	}
	// Contexts owned by a closed process are retired by the closing
	// operation's post-commit flush, which may not have run yet when
	// this export races it; the closure itself is journaled at or below
	// lastSeq, so mark them retired here to keep the snapshot
	// deterministic with respect to the journal.
	closedOwned := map[string]bool{}
	for _, pi := range e.procs {
		if !isActive(pi.schema.States(), pi.state) {
			for _, id := range pi.ownedCtxs {
				closedOwned[id] = true
			}
		}
	}
	for i := range ctxExp.Contexts {
		if closedOwned[ctxExp.Contexts[i].ID] {
			ctxExp.Contexts[i].Retired = true
		}
	}
	snap.Contexts = ctxExp

	ids := make([]string, 0, len(e.procs))
	for id := range e.procs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		pi := e.procs[id]
		sp := snapProc{
			ID:        pi.id,
			Schema:    pi.schema.Name,
			State:     string(pi.state),
			ParentVar: pi.parentVar,
			Initiator: pi.initiator,
			Owned:     append([]string(nil), pi.ownedCtxs...),
		}
		if pi.parentProc != nil {
			sp.ParentProc = pi.parentProc.id
		}
		if len(pi.ctxIDs) > 0 {
			sp.CtxIDs = make(map[string]string, len(pi.ctxIDs))
			for k, v := range pi.ctxIDs {
				sp.CtxIDs[k] = v
			}
		}
		for v := range pi.cancelled {
			if pi.cancelled[v] {
				sp.Cancelled = append(sp.Cancelled, v)
			}
		}
		sort.Strings(sp.Cancelled)
		if err := ensureSchemaDef(pi.schema, snap.Defs, e.schemas); err != nil {
			return nil, err
		}
		for _, av := range pi.extraActs {
			wav, err := encodeActivityVar(av, snap.Defs, e.schemas)
			if err != nil {
				return nil, err
			}
			sp.ExtraActs = append(sp.ExtraActs, wav)
		}
		for _, d := range pi.extraDeps {
			wd, err := encodeDependency(d)
			if err != nil {
				return nil, err
			}
			sp.ExtraDeps = append(sp.ExtraDeps, wd)
		}
		if len(pi.acts) > 0 {
			sp.Acts = make(map[string][]string, len(pi.acts))
			for v, list := range pi.acts {
				for _, ai := range list {
					sp.Acts[v] = append(sp.Acts[v], ai.id)
				}
			}
		}
		snap.Procs = append(snap.Procs, sp)
	}

	actIDs := make([]string, 0, len(e.activities))
	for id := range e.activities {
		actIDs = append(actIDs, id)
	}
	sort.Strings(actIDs)
	for _, id := range actIDs {
		ai := e.activities[id]
		snap.Acts = append(snap.Acts, snapAct{
			ID:       ai.id,
			Var:      ai.varName,
			Proc:     ai.proc.id,
			State:    string(ai.state),
			Assignee: ai.assignee,
			Child:    ai.child != nil,
		})
	}
	if snap.Defs.empty() {
		snap.Defs = nil
	}
	return snap, nil
}

// importSnapshot rebuilds the engine (and context registry) from a
// snapshot. Called on a fresh engine during Recover.
func (e *Engine) importSnapshot(snap *snapFile) error {
	if err := e.contexts.Import(snap.Contexts); err != nil {
		return err
	}
	res := newSchemaResolver(snap.Defs, e.schemas)
	h := e.lockAll() // the open-work index is stripe state
	defer h.unlock()
	e.idx.Lock()
	defer e.idx.Unlock()
	byID := make(map[string]*snapAct, len(snap.Acts))
	for i := range snap.Acts {
		byID[snap.Acts[i].ID] = &snap.Acts[i]
	}
	// Pass 1: process shells with their schemas and dynamic extensions.
	for _, sp := range snap.Procs {
		s, err := res.resolve(sp.Schema)
		if err != nil {
			return err
		}
		ps, ok := s.(*core.ProcessSchema)
		if !ok {
			return fmt.Errorf("enact: snapshot process %s references non-process schema %q", sp.ID, sp.Schema)
		}
		pi := &ProcessInstance{
			id:        sp.ID,
			schema:    ps,
			state:     core.State(sp.State),
			parentVar: sp.ParentVar,
			initiator: sp.Initiator,
			acts:      make(map[string][]*ActivityInstance),
			ctxIDs:    make(map[string]string, len(sp.CtxIDs)),
			ownedCtxs: append([]string(nil), sp.Owned...),
			cancelled: make(map[string]bool),
		}
		for k, v := range sp.CtxIDs {
			pi.ctxIDs[k] = v
		}
		for _, v := range sp.Cancelled {
			pi.cancelled[v] = true
		}
		for _, wav := range sp.ExtraActs {
			av, err := res.activityVar(wav)
			if err != nil {
				return err
			}
			pi.extraActs = append(pi.extraActs, av)
		}
		for _, wd := range sp.ExtraDeps {
			d, err := decodeDependency(wd)
			if err != nil {
				return err
			}
			pi.extraDeps = append(pi.extraDeps, d)
		}
		e.procs[pi.id] = pi
	}
	// Pass 2: parent links, then family roots and stripes (the snapshot
	// predates striping, so recompute from the parent links) — known
	// before any activity is created, because an open activity is indexed
	// on its family's stripe — plus the context→family index used to
	// route set_field records and multi-stripe starts.
	for _, sp := range snap.Procs {
		if sp.ParentProc == "" {
			continue
		}
		parent, ok := e.procs[sp.ParentProc]
		if !ok {
			return fmt.Errorf("enact: snapshot process %s references missing parent %s", sp.ID, sp.ParentProc)
		}
		e.procs[sp.ID].parentProc = parent
	}
	for _, pi := range e.procs {
		top := pi
		for top.parentProc != nil {
			top = top.parentProc
		}
		pi.root = top.id
		pi.stripe = e.stripeOf(top.id)
	}
	for _, pi := range e.procs {
		for _, id := range pi.ownedCtxs {
			e.ctxFam[id] = pi.root
		}
	}
	// Pass 3: activity instances (creation order per variable is
	// preserved by the snapshot's id lists), entering the open-work index
	// through the same setter live transitions use.
	for _, sp := range snap.Procs {
		pi := e.procs[sp.ID]
		for v, list := range sp.Acts {
			av, ok := pi.activityVar(v)
			if !ok {
				return fmt.Errorf("enact: snapshot process %s has instances of unknown variable %q", sp.ID, v)
			}
			for _, actID := range list {
				sa := byID[actID]
				if sa == nil {
					return fmt.Errorf("enact: snapshot process %s references missing activity %s", sp.ID, actID)
				}
				ai := &ActivityInstance{
					id:       sa.ID,
					varName:  v,
					schema:   av.Schema,
					proc:     pi,
					assignee: sa.Assignee,
				}
				pi.insertAct(ai)
				e.activities[ai.id] = ai
				e.setActState(ai, core.State(sa.State))
			}
		}
	}
	// Pass 4: subprocess child links (a child shares its invoking
	// activity's id).
	for _, sa := range snap.Acts {
		if sa.Child {
			ai := e.activities[sa.ID]
			child, ok := e.procs[sa.ID]
			if ai == nil || !ok {
				return fmt.Errorf("enact: snapshot activity %s marks a missing subprocess", sa.ID)
			}
			ai.child = child
		}
	}
	e.nextProc.Store(int64(snap.NextProc))
	e.nextAct.Store(int64(snap.NextAct))
	return nil
}
