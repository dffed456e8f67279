// Package delivery implements CMI awareness delivery (paper Section 6.5):
// the awareness delivery agent, which consumes the output events produced
// by the awareness engine's Output operators, resolves the awareness
// delivery role and awareness role assignment to a set of participants,
// and queues the information for each of them; and the awareness
// information viewer, the client-side component that retrieves and
// acknowledges queued information.
//
// Queues are persistent: a participant is not assumed to be logged on
// when an awareness event is detected, so each participant's queue is
// journaled to an append-only JSON-lines file and rebuilt on restart.
//
// The journal is written with group commit: each queue has its own lock,
// and concurrent appends to the same queue coalesce into a single
// buffered write + flush (+ fsync when the store is opened with
// StoreOptions.Sync). N writers racing on one queue therefore pay ~one
// commit per group rather than one each — the same amortization
// transactional logs use — which is what lets concurrent requests share
// commits on the durable local-delivery path.
package delivery

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/mcc-cmi/cmi/internal/core"
	"github.com/mcc-cmi/cmi/internal/fs"
	"github.com/mcc-cmi/cmi/internal/obs"
	"github.com/mcc-cmi/cmi/internal/wire"
)

// A Notification is one piece of awareness information queued for one
// participant.
type Notification struct {
	// ID is unique per participant queue and orders the queue.
	ID int64 `json:"id"`
	// Time is the detection time of the composite event.
	Time time.Time `json:"time"`
	// Schema is the awareness schema that produced the information.
	Schema string `json:"schema"`
	// Description is the user-friendly description attached by the
	// output operator.
	Description string `json:"description"`
	// Params carries the digested parameters of the composite event in
	// JSON-friendly form.
	Params map[string]any `json:"params,omitempty"`
	// Priority orders the queue in the viewer: higher first, ties by
	// arrival. Zero is the default.
	Priority int `json:"priority,omitempty"`
	// Acked records whether the participant has acknowledged it.
	Acked bool `json:"acked,omitempty"`
}

// journal record kinds.
type record struct {
	Kind  string        `json:"kind"` // "notif", "ack", "key" or "next"
	Notif *Notification `json:"notif,omitempty"`
	AckID int64         `json:"ackId,omitempty"`
	// Key is the idempotency key of a remotely pushed notification
	// (EnqueueKeyed / EnqueueFanout); replayed on load so redelivery
	// after a crash on either side cannot duplicate a notification.
	// "key" records carry a bare key preserved by compaction after its
	// notification was acknowledged and dropped.
	Key string `json:"key,omitempty"`
	// NextID ("next" records) preserves the id high-water mark across
	// compaction, which drops the acked records that would otherwise
	// carry it; ids must never be reused even for acknowledged history.
	NextID int64 `json:"nextId,omitempty"`
	// A binary notif record as decodeRecord leaves it: id and acked
	// state known, body still encoded.
	id    int64
	acked bool
	body  []byte
}

// A loadEnt is one notif record as load's first pass leaves it, pointer-
// free so the collector skips the table: a frame at [frame, end) of the
// journal bytes with its body at [body, end), or else the legacy-th
// (1-based) eagerly decoded JSON notification.
type loadEnt struct {
	id               int64
	frame, body, end int
	to               int // where compaction put the end of the body
	legacy           int32
	acked, keyed     bool
}

// A commitGroup is one group-commit batch: encoded records from every
// writer that arrived while the previous commit held the file, written
// with a single buffered write + flush.
type commitGroup struct {
	buf       []byte         // newline-terminated encoded records, in id order
	n         int            // records in buf
	notifs    []Notification // notifications the group carries, in id order
	err       error          // commit outcome; valid once committed is set
	committed bool           // set under q.mu; q.cond broadcasts the transition
}

// A CommitHook observes committed notifications: it is invoked once per
// journal commit group that carries notifications, with the
// participant the queue belongs to and the group's notifications in id
// order. Calls for one queue are serialized and ordered (group commit
// serializes the journal), so a subscriber sees ids strictly ascending
// per participant. The hook runs on the commit leader's goroutine while
// the next group is still free to form, but it delays the group's
// writers from returning — it must never block (the streaming hub's
// Broadcast, the intended consumer, drops to cursor replay instead of
// blocking).
type CommitHook func(participant string, ns []Notification)

type queue struct {
	path        string
	participant string
	fsys        fs.FS
	// hook points at the owning store's commit hook; the commit leader
	// loads it at broadcast time, so a group led by an ack writer still
	// broadcasts the notifications other writers joined to it.
	hook *atomic.Pointer[CommitHook]
	// poisonTally points at the owning store's poisoned-queue counter.
	poisonTally *atomic.Int64

	mu     sync.Mutex
	cond   *sync.Cond // signals commit-leader turnover (writing -> false)
	file   fs.File
	w      *bufio.Writer
	notifs []Notification // in id order
	// bodies[i], for i < len(bodies), is the encoded body of notifs[i]
	// while that entry is a stub load left undecoded (only ID and Acked
	// set); nil once a read has decoded it (see at).
	bodies  [][]byte
	byID    map[int64]int   // id -> index in notifs
	keys    map[string]bool // idempotency keys already enqueued
	nextID  int64
	watches []chan Notification
	pending int  // unacked notifications, maintained incrementally
	closed  bool // the store has been closed
	// poisoned is the sticky error set by the first failed commit
	// write/flush/fsync. Per fsyncgate semantics a failed fsync leaves
	// the durable suffix of the journal unknown and a retry on the same
	// descriptor can falsely succeed, so once set the queue refuses all
	// further appends with this error. Reads keep serving the in-memory
	// state; /api/healthz turns unhealthy.
	poisoned error
	// corrupt records that load found mid-journal (non-tail) corruption:
	// replay stopped at the first bad frame even though intact frames
	// followed. The queue serves the decoded prefix but the damage is
	// surfaced (never silently compacted away) until fsck repairs it.
	corrupt bool

	open    *commitGroup // group accepting records; nil when none is forming
	writing bool         // a commit leader holds the file outside mu
	spare   []byte       // recycled group buffer
}

// A Store owns the persistent per-participant queues of one CMI system.
// It is safe for concurrent use; operations on distinct queues do not
// contend, and concurrent appends to the same queue group-commit.
type Store struct {
	dir          string
	syncOnCommit bool
	fsys         fs.FS

	// metrics is atomic so the enqueue/ack hot paths read it without
	// taking any store-wide lock.
	metrics atomic.Pointer[storeMetrics]
	// pendingTotal counts unacknowledged notifications across all
	// loaded queues, maintained incrementally so the queue-depth gauge
	// is O(1) at scrape time instead of a full scan under a lock.
	pendingTotal atomic.Int64
	// commitHook, when set, observes every committed notification batch
	// (see CommitHook). Atomic so the commit path reads it without a
	// store-wide lock.
	commitHook atomic.Pointer[CommitHook]
	// poisoned counts queues whose journal a failed commit poisoned;
	// corruptLoads counts journals whose load stopped at mid-journal
	// corruption. Both feed gauges and the system health report.
	poisoned     atomic.Int64
	corruptLoads atomic.Int64

	mu     sync.Mutex // guards queues map and closed only
	queues map[string]*queue
	closed bool
}

// StoreOptions configure a Store beyond its directory.
type StoreOptions struct {
	// Sync fsyncs the journal file at the end of every commit group,
	// making appends durable against machine crashes rather than only
	// process crashes. Group commit amortizes the fsync: N concurrent
	// appends to one queue pay ~one fsync per group, not one each.
	Sync bool
	// FS is the filesystem the journals live on; nil means the real
	// one. Tests and the chaos oracle inject storage faults here.
	FS fs.FS
}

// storeMetrics holds the store's hot-path instruments; nil when the
// store is not instrumented (recording on nil instruments is a no-op,
// see package obs).
type storeMetrics struct {
	enqueued      *obs.Counter
	acked         *obs.Counter
	appendLatency *obs.Histogram
	commits       *obs.Counter
	batchSize     *obs.ValueHistogram
	encode        *obs.Histogram
}

// Instrument registers the store's metric series: notifications
// enqueued and acknowledged, commit-group latency and batch size, and
// the pending queue depth (an O(1) counter read at exposition time).
// A nil registry is a no-op.
func (s *Store) Instrument(reg *obs.Registry, labels ...obs.Label) {
	if reg == nil {
		return
	}
	s.metrics.Store(&storeMetrics{
		enqueued: reg.Counter("cmi_delivery_enqueued_total",
			"Notifications appended to participant queues.", labels...),
		acked: reg.Counter("cmi_delivery_acked_total",
			"Notifications acknowledged by participants.", labels...),
		appendLatency: reg.Histogram("cmi_delivery_journal_append_seconds",
			"Latency of one durable journal commit group (write, flush, fsync when enabled).",
			nil, labels...),
		commits: reg.Counter("cmi_delivery_commits_total",
			"Journal commit groups written (each covers one or more records).", labels...),
		batchSize: reg.ValueHistogram("cmi_delivery_commit_batch_size",
			"Records coalesced into one journal commit group.", nil, labels...),
		encode: wire.Instrument(reg),
	})
	reg.GaugeFunc("cmi_delivery_queue_depth",
		"Unacknowledged notifications across all loaded participant queues.",
		func() float64 { return float64(s.pendingDepth()) }, labels...)
	reg.GaugeFunc("cmi_delivery_poisoned_queues",
		"Participant journals poisoned by a failed commit write or fsync (refusing all further appends).",
		func() float64 { return float64(s.poisoned.Load()) }, labels...)
	reg.GaugeFunc("cmi_delivery_corrupt_journals",
		"Participant journals whose load stopped at mid-journal (non-tail) corruption.",
		func() float64 { return float64(s.corruptLoads.Load()) }, labels...)
}

// PoisonedQueues reports how many participant journals a failed commit
// write or fsync has poisoned since the store opened.
func (s *Store) PoisonedQueues() int { return int(s.poisoned.Load()) }

// CorruptJournals reports how many participant journals were found
// mid-journal corrupt at load: replay stopped at the first bad frame
// with intact frames after it. The decoded prefix is served, but the
// condition is surfaced (health goes unhealthy) until `cmictl fsck`
// repairs the file.
func (s *Store) CorruptJournals() int { return int(s.corruptLoads.Load()) }

// pendingDepth reports unacknowledged notifications across the loaded
// queues for the queue-depth gauge — an O(1) read of the incrementally
// maintained counter, never a scan.
func (s *Store) pendingDepth() int {
	return int(s.pendingTotal.Load())
}

// OnCommit registers the store's commit hook, the per-commit-group
// broadcast feeding live streaming sessions: fn is invoked after each
// journal commit group that carries notifications, with the whole batch
// in one call, so one commit group costs one hook call per queue however
// many writers it coalesced. Notifications are reported in id order per
// participant; a group whose write failed is still reported, because its
// records were accepted in memory (the journal decides on restart, and
// the keyed dedup backstops replays). Passing nil removes the hook.
func (s *Store) OnCommit(fn CommitHook) {
	if fn == nil {
		s.commitHook.Store(nil)
		return
	}
	s.commitHook.Store(&fn)
}

// Open reports whether the store is usable (not yet closed).
func (s *Store) Open() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.closed
}

// NewStore opens (creating if necessary) a queue store rooted at dir
// with default options.
func NewStore(dir string) (*Store, error) {
	return NewStoreWith(dir, StoreOptions{})
}

// NewStoreWith opens (creating if necessary) a queue store rooted at
// dir with the given options.
func NewStoreWith(dir string, opts StoreOptions) (*Store, error) {
	fsys := fs.Or(opts.FS)
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("delivery: %w", err)
	}
	return &Store{dir: dir, syncOnCommit: opts.Sync, fsys: fsys, queues: make(map[string]*queue)}, nil
}

func errClosed() error { return fmt.Errorf("delivery: store closed") }

// notifBatch wraps one accepted notification for its commit group's
// broadcast — nil (no allocation) when no commit hook is registered.
func notifBatch(s *Store, n Notification) []Notification {
	if s.commitHook.Load() == nil {
		return nil
	}
	return []Notification{n}
}

// queueFor resolves (loading or creating on first use) the participant's
// queue. The store-wide lock covers only this map lookup/creation; all
// queue I/O runs under the queue's own lock.
func (s *Store) queueFor(participant string) (*queue, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errClosed()
	}
	return s.queueLocked(participant)
}

func (s *Store) queueLocked(participant string) (*queue, error) {
	if q, ok := s.queues[participant]; ok {
		return q, nil
	}
	q, err := s.newQueue(participant, filepath.Join(s.dir, url.PathEscape(participant)+".jsonl"))
	if err != nil {
		return nil, err
	}
	q.hook = &s.commitHook
	s.queues[participant] = q
	s.pendingTotal.Add(int64(q.pending))
	return q, nil
}

// newQueue loads (or creates) one participant queue from its journal
// file — the shared construction path of queueLocked and Preload.
func (s *Store) newQueue(participant, path string) (*queue, error) {
	q := &queue{path: path, participant: participant, fsys: s.fsys,
		poisonTally: &s.poisoned, byID: make(map[int64]int), keys: make(map[string]bool), nextID: 1}
	q.cond = sync.NewCond(&q.mu)
	if err := q.load(); err != nil {
		return nil, err
	}
	if q.corrupt {
		s.corruptLoads.Add(1)
	}
	f, err := q.fsys.OpenAppend(path)
	if err != nil {
		return nil, fmt.Errorf("delivery: %w", err)
	}
	q.file = f
	q.w = bufio.NewWriter(f)
	return q, nil
}

// Preload loads every on-disk queue, replaying journals in parallel —
// called once at startup so delivery recovery overlaps across
// participants instead of paying first-touch replay per request.
func (s *Store) Preload() error {
	participants, err := s.Participants()
	if err != nil {
		return err
	}
	var (
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for _, p := range participants {
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return errClosed()
		}
		_, loaded := s.queues[p]
		s.mu.Unlock()
		if loaded {
			continue
		}
		wg.Add(1)
		go func(p string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			q, err := s.newQueue(p, filepath.Join(s.dir, url.PathEscape(p)+".jsonl"))
			if err != nil {
				errMu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				errMu.Unlock()
				return
			}
			s.mu.Lock()
			if s.closed || s.queues[p] != nil {
				s.mu.Unlock()
				q.file.Close()
				return
			}
			q.hook = &s.commitHook
			s.queues[p] = q
			s.mu.Unlock()
			s.pendingTotal.Add(int64(q.pending))
		}(p)
	}
	wg.Wait()
	return firstErr
}

// compactMinAcked is the floor below which compaction never triggers,
// so small queues (and their full history) are left alone.
const compactMinAcked = 4

// load replays the journal: notifications in order, acks applied.
// Records are binary wire frames, legacy JSON lines, or a mix from an
// in-place upgrade — the scanner auto-detects per record. A torn TAIL
// (a partial frame from a crash mid-append) is tolerated and ignored;
// mid-journal corruption — a bad frame with intact frames after it —
// stops replay at the first bad record and marks the queue corrupt, so
// the damage is reported loudly instead of silently truncating history.
//
// Replay decodes no binary notification body. The first pass decodes
// record headers only (decodeRecord) and applies acks, keys and id
// marks; the second leaves each notification that stays in memory a
// stub over its encoded body, decoded by the first read returning it
// (see at). In between, a journal dominated by acknowledged records is
// rewritten to an id high-water mark, the idempotency keys (kept
// standalone so redelivered pushes of acked notifications still dedup)
// and the live notifications — keyless frames copied byte for byte,
// keyed ones re-framed around their body with an empty key — and the
// stubs point into the rewritten bytes, else into the bytes read. The
// rewrite is atomic (fs.ReplaceFile: tmp + fsync + rename + dir fsync)
// and best-effort: on any error the original journal is kept and the
// full history stays in memory. A corrupt load is never compacted: that
// would destroy the damaged region fsck needs to diagnose.
func (q *queue) load() error {
	data, err := q.fsys.ReadFile(q.path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("delivery: %w", err)
	}
	var ents []loadEnt        // notif records, in journal order
	var legacy []Notification // the JSON ones among them, decoded
	sc := wire.NewScanner(data)
	for {
		off := int(sc.Offset())
		rec, isFrame, ok := sc.Next()
		if !ok {
			break
		}
		var r record
		if isFrame {
			if decodeRecord(rec, &r) != nil {
				continue // unknown kind from a newer writer; skip
			}
		} else {
			var jr record // only a JSON record pays for escaping to the heap
			if json.Unmarshal(rec, &jr) != nil {
				continue // torn write at crash; skip
			}
			r = jr
		}
		switch r.Kind {
		case "notif":
			e := loadEnt{id: r.id, acked: r.acked, keyed: r.Key != ""}
			switch {
			case isFrame:
				e.frame, e.end = off, off+len(sc.Frame())
				e.body = e.end - len(r.body)
			case r.Notif != nil:
				legacy = append(legacy, *r.Notif)
				e.id, e.acked, e.legacy = r.Notif.ID, r.Notif.Acked, int32(len(legacy))
			default:
				continue
			}
			q.byID[e.id] = len(ents)
			ents = append(ents, e)
			if e.keyed {
				q.keys[r.Key] = true
			}
			if e.id >= q.nextID {
				q.nextID = e.id + 1
			}
		case "ack":
			if i, ok := q.byID[r.AckID]; ok {
				ents[i].acked = true
			}
		case "key":
			if r.Key != "" {
				q.keys[r.Key] = true
			}
		case "next":
			if r.NextID > q.nextID {
				q.nextID = r.NextID
			}
		}
	}
	q.pending = 0
	for i := range ents {
		if !ents[i].acked {
			q.pending++
		}
	}
	q.corrupt = sc.Torn() && sc.CorruptMidJournal()
	compacted := false
	if acked := len(ents) - q.pending; !q.corrupt && acked > q.pending && acked >= compactMinAcked {
		buf := make([]byte, 0, len(data))
		var payload []byte
		writeRec := func(pay []byte) {
			payload = pay
			buf = append(wire.AppendFrame(buf, pay), '\n')
		}
		writeRec(appendRecordNext(payload[:0], q.nextID))
		keys := make([]string, 0, len(q.keys))
		for k := range q.keys {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			writeRec(appendRecordKey(payload[:0], k))
		}
		for i := range ents {
			switch e := &ents[i]; {
			case e.acked:
			case e.legacy > 0:
				writeRec(appendRecordNotif(payload[:0], "", &legacy[e.legacy-1]))
			case e.keyed:
				head := wire.AppendUint64LE(append(payload[:0], recNotif), uint64(e.id))
				writeRec(append(wire.AppendString(head, ""), data[e.body:e.end]...))
				e.to = len(buf) - 1 // the body ends the frame, before its newline
			default:
				buf = append(append(buf, data[e.frame:e.end]...), '\n')
				e.to = len(buf) - 1
			}
		}
		if fs.ReplaceFile(q.fsys, q.path, buf, true) == nil {
			// buf has room for the whole old journal: pin the stubs to
			// an exact-size copy of what was written instead.
			compacted, data = true, bytes.Clone(buf)
		}
	}
	keep := len(ents)
	if compacted {
		// Like the compacted journal, memory keeps only live history.
		keep, q.byID = q.pending, make(map[int64]int, q.pending)
	}
	q.notifs = make([]Notification, 0, keep)
	q.bodies = make([][]byte, 0, keep)
	for i := range ents {
		e := &ents[i]
		if compacted && e.acked {
			continue
		}
		n, body := Notification{ID: e.id}, []byte(nil)
		switch {
		case e.legacy > 0:
			n = legacy[e.legacy-1]
		case compacted:
			body = data[e.to-(e.end-e.body) : e.to]
		default:
			body = data[e.body:e.end]
		}
		n.Acked = e.acked
		q.byID[n.ID] = len(q.notifs)
		q.notifs = append(q.notifs, n)
		q.bodies = append(q.bodies, body)
	}
	return nil
}

// at returns q.notifs[i], first decoding its body if load left it a
// stub: each body is decoded once, by the first read that returns it.
// Called with q.mu held.
func (q *queue) at(i int) Notification {
	if i < len(q.bodies) && q.bodies[i] != nil {
		n := &q.notifs[i]
		acked := n.Acked // an Ack since load outranks the body's acked byte
		decodeNotifBody(wire.NewDec(q.bodies[i]), n)
		n.Acked, q.bodies[i] = acked, nil
	}
	return q.notifs[i]
}

// appendCommit adds n encoded, newline-terminated records to the
// queue's open commit group and returns once the group containing them
// is durably written. The classic group-commit protocol: the first
// writer to find no open group becomes its leader; while the leader
// waits for the previous commit to release the file, later writers join
// the open group; the leader then seals the group and writes the whole
// batch with one write + flush (+ fsync when enabled). A batch enqueue
// passes all its records for the queue in one call, so a batch costs
// one commit-group join however many records it carries. The
// notifications the records carry (nil for acks) ride the group and are
// reported to the store's commit hook — once per group, by the leader,
// after the write — which is what makes "one commit group = one
// broadcast" hold for streaming sessions. Called with q.mu held; the
// lock is released while waiting/writing and re-held on return; recs
// and notifs are copied before return, so the caller may reuse them.
func (q *queue) appendCommit(recs []byte, n int, notifs []Notification, m *storeMetrics, syncFile bool) error {
	if err := q.usable(); err != nil {
		return err
	}
	if g := q.open; g != nil {
		// A group is forming: join it and wait for its commit.
		g.buf = append(g.buf, recs...)
		g.n += n
		g.notifs = append(g.notifs, notifs...)
		for !g.committed {
			q.cond.Wait()
		}
		return g.err
	}
	// Open a new group and lead its commit.
	g := &commitGroup{buf: append(q.spare[:0], recs...)}
	q.spare = nil
	g.n = n
	g.notifs = append(g.notifs, notifs...)
	q.open = g
	for q.writing {
		q.cond.Wait() // joiners accumulate in q.open meanwhile
	}
	if syncFile && !q.closed {
		// Linger one scheduler yield before sealing. The joiners of the
		// commit that just cleared the file were blocked for its whole
		// fsync; without this they always miss the next group, which
		// then carries a single record — groups would alternate between
		// 1 and N-1 records instead of holding ~N. The yield lets every
		// runnable writer reach the queue and join. Only worth a yield
		// when commits carry an fsync; q.open stays set, so no other
		// leader can arise meanwhile.
		q.mu.Unlock()
		runtime.Gosched()
		q.mu.Lock()
	}
	q.open = nil // seal: later writers start the next group
	if q.closed {
		// The store closed while this group waited its turn.
		g.err = errClosed()
		g.committed = true
		q.cond.Broadcast()
		return g.err
	}
	q.writing = true
	q.mu.Unlock()
	t0 := time.Now()
	_, err := q.w.Write(g.buf)
	if err == nil {
		err = q.w.Flush()
	}
	if err == nil && syncFile {
		err = q.file.Sync()
	}
	if err != nil {
		err = fmt.Errorf("delivery: %w", err)
	}
	if m != nil {
		m.appendLatency.Observe(time.Since(t0))
		m.commits.Inc()
		m.batchSize.Observe(float64(g.n))
	}
	// Broadcast the group's notifications while q.writing still serializes
	// this queue's commits: hook calls are therefore in id order per
	// participant, and the next group keeps forming meanwhile. The group's
	// writers only return after the hook, so a quiesce barrier that waits
	// for enqueues also covers the broadcast.
	if q.hook != nil && len(g.notifs) > 0 {
		if p := q.hook.Load(); p != nil {
			(*p)(q.participant, g.notifs)
		}
	}
	q.mu.Lock()
	q.writing = false
	q.spare = g.buf[:0]
	if err != nil && q.poisoned == nil && !q.closed {
		// fsyncgate: after a failed write or fsync the kernel may have
		// dropped the dirty pages, so the durable suffix of the journal
		// is unknown and a retried fsync on this descriptor could
		// falsely report success. Poison the queue permanently: every
		// joiner of this group gets the error now (g.err below), and
		// every later append fails fast instead of retrying the fd.
		q.poisoned = fmt.Errorf("delivery: journal for %q poisoned: %w", q.participant, err)
		if q.poisonTally != nil {
			q.poisonTally.Add(1)
		}
	}
	g.err = err
	g.committed = true
	q.cond.Broadcast()
	return err
}

// usable reports why the queue refuses writes: closed store, poisoned
// journal, or mid-journal corruption (appending past a damaged region
// would reuse ids from the lost suffix). Called with q.mu held.
func (q *queue) usable() error {
	if q.closed {
		return errClosed()
	}
	if q.poisoned != nil {
		return q.poisoned
	}
	if q.corrupt {
		return fmt.Errorf("delivery: journal for %q is corrupt mid-file; run cmictl fsck", q.participant)
	}
	return nil
}

// accept applies one accepted notification to the queue's in-memory
// state (id high-water mark, history, dedup key, pending counters,
// watchers) at id-assignment time, before its commit group lands —
// watchers therefore see notifications in id order. If the commit later
// fails the caller reports the error but the in-memory record stays;
// the journal decides on restart. Called with q.mu held.
func (s *Store) accept(q *queue, n Notification, key string, m *storeMetrics) {
	q.nextID = n.ID + 1
	q.byID[n.ID] = len(q.notifs)
	q.notifs = append(q.notifs, n)
	if key != "" {
		q.keys[key] = true
	}
	q.pending++
	s.pendingTotal.Add(1)
	if m != nil {
		m.enqueued.Inc()
	}
	for _, ch := range q.watches {
		select {
		case ch <- n:
		default: // slow watcher: drop rather than block delivery
		}
	}
}

// Enqueue appends a notification to the participant's queue and returns
// it with its assigned id.
func (s *Store) Enqueue(participant string, n Notification) (Notification, error) {
	n, _, err := s.EnqueueKeyed(participant, "", n)
	return n, err
}

// EnqueueKeyed appends a notification under an idempotency key, the
// server side of cross-domain store-and-forward delivery: a key already
// present in the participant's queue (including keys replayed from the
// journal after a restart) makes the call a no-op reporting
// duplicate=true, so a redelivered push lands exactly once. An empty key
// behaves like Enqueue.
func (s *Store) EnqueueKeyed(participant, key string, n Notification) (Notification, bool, error) {
	q, err := s.queueFor(participant)
	if err != nil {
		return Notification{}, false, err
	}
	m := s.metrics.Load()
	q.mu.Lock()
	defer q.mu.Unlock()
	if err := q.usable(); err != nil {
		return Notification{}, false, err
	}
	if key != "" && q.keys[key] {
		return Notification{}, true, nil
	}
	n.ID = q.nextID
	n.Acked = false
	rec := encodeNotifFrame(key, &n, m)
	s.accept(q, n, key, m)
	err = q.appendCommit(rec, 1, notifBatch(s, n), m, s.syncOnCommit)
	wire.PutBuf(rec)
	if err != nil {
		return Notification{}, false, err
	}
	return n, false, nil
}

// encodeNotifFrame encodes one notif record as a newline-terminated
// wire frame in a pooled buffer (release with wire.PutBuf), observing
// encode latency when instrumented.
func encodeNotifFrame(key string, n *Notification, m *storeMetrics) []byte {
	var t0 time.Time
	if m != nil {
		t0 = time.Now()
	}
	payload := wire.GetBuf(notifRecordSize(key, n))
	payload = appendRecordNotif(payload, key, n)
	rec := wire.GetBuf(len(payload) + 16)
	rec = wire.AppendFrame(rec, payload)
	rec = append(rec, '\n')
	wire.PutBuf(payload)
	if m != nil {
		m.encode.Observe(time.Since(t0))
	}
	return rec
}

// EnqueueFanout appends one notification to many participant queues —
// the delivery agent's fan-out after awareness role resolution. The
// notification is binary-encoded into a wire frame once; the id — the
// only per-queue part, held in a fixed-width slot — is patched in place
// and the frame resealed per queue, then journaled through that queue's
// commit group, so a wide fan-out (or many concurrent fan-outs from
// concurrent requests) pays ~one commit per group per queue instead of one
// per record, and the encode cost once instead of per queue. Per-queue
// id ordering and idempotency-key dedup match EnqueueKeyed exactly.
//
// It returns the enqueued notifications aligned with users (zero-valued
// where the key was a duplicate or the queue failed), the number of
// duplicates, and the first error encountered; queues after a failing
// one are still attempted.
func (s *Store) EnqueueFanout(users []string, key string, n Notification) ([]Notification, int, error) {
	out := make([]Notification, len(users))
	if len(users) == 0 {
		return out, 0, nil
	}
	n.ID = 0
	n.Acked = false
	m := s.metrics.Load()
	rec := encodeNotifFrame(key, &n, m)
	defer wire.PutBuf(rec)
	var (
		dups     int
		firstErr error
	)
	fail := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}
	for i, u := range users {
		q, err := s.queueFor(u)
		if err != nil {
			fail(err)
			continue
		}
		q.mu.Lock()
		if err := q.usable(); err != nil {
			q.mu.Unlock()
			fail(err)
			continue
		}
		if key != "" && q.keys[key] {
			dups++
			q.mu.Unlock()
			continue
		}
		nn := n
		nn.ID = q.nextID
		patchNotifID(rec, nn.ID)
		s.accept(q, nn, key, m)
		err = q.appendCommit(rec, 1, notifBatch(s, nn), m, s.syncOnCommit)
		q.mu.Unlock()
		if err != nil {
			fail(err)
			continue
		}
		out[i] = nn
	}
	return out, dups, firstErr
}

// Pending returns the participant's unacknowledged notifications,
// ordered by priority (highest first) and then by arrival.
func (s *Store) Pending(participant string) ([]Notification, error) {
	q, err := s.queueFor(participant)
	if err != nil {
		return nil, err
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return nil, errClosed()
	}
	out := make([]Notification, 0, q.pending)
	for i := range q.notifs {
		if !q.notifs[i].Acked {
			out = append(out, q.at(i))
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Priority != out[j].Priority {
			return out[i].Priority > out[j].Priority
		}
		return out[i].ID < out[j].ID
	})
	return out, nil
}

// PendingAfter returns up to limit unacknowledged notifications with an
// id strictly greater than afterID, in id order — the cursor-replay
// read of the streaming delivery plane: a session resuming from cursor
// C replays PendingAfter(C) from the journal before going live, and a
// backpressured session degrades to the same read instead of buffering
// without bound. A limit <= 0 means no limit. Journal compaction only
// ever drops acknowledged notifications and preserves the id high-water
// mark, so a cursor older than the last compaction still resumes
// correctly: every live notification after it is returned, and no id is
// ever reused below the cursor.
func (s *Store) PendingAfter(participant string, afterID int64, limit int) ([]Notification, error) {
	q, err := s.queueFor(participant)
	if err != nil {
		return nil, err
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return nil, errClosed()
	}
	// q.notifs is in ascending id order; binary-search the resume point.
	lo, hi := 0, len(q.notifs)
	for lo < hi {
		mid := (lo + hi) / 2
		if q.notifs[mid].ID <= afterID {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	var out []Notification
	for i := lo; i < len(q.notifs); i++ {
		if q.notifs[i].Acked {
			continue
		}
		out = append(out, q.at(i))
		if limit > 0 && len(out) == limit {
			break
		}
	}
	return out, nil
}

// A Digest summarizes a participant's pending queue per awareness
// schema — the event-aggregation facility Section 6.5 leaves open. The
// json tags pin the wire shape served by the federation monitor API.
type Digest struct {
	Schema      string `json:"schema"`      // awareness schema name
	Count       int    `json:"count"`       // pending notifications of the schema
	MaxPriority int    `json:"maxPriority"` // highest priority among them
	// Latest is the most recent pending notification of the schema.
	Latest Notification `json:"latest"`
}

// PendingDigest aggregates the pending notifications by awareness
// schema, ordered by max priority (highest first) then schema name.
func (s *Store) PendingDigest(participant string) ([]Digest, error) {
	pending, err := s.Pending(participant)
	if err != nil {
		return nil, err
	}
	bygroup := map[string]*Digest{}
	for _, n := range pending {
		d, ok := bygroup[n.Schema]
		if !ok {
			d = &Digest{Schema: n.Schema, MaxPriority: n.Priority}
			bygroup[n.Schema] = d
		}
		d.Count++
		if n.Priority > d.MaxPriority {
			d.MaxPriority = n.Priority
		}
		if n.ID > d.Latest.ID {
			d.Latest = n
		}
	}
	out := make([]Digest, 0, len(bygroup))
	for _, d := range bygroup {
		out = append(out, *d)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].MaxPriority != out[j].MaxPriority {
			return out[i].MaxPriority > out[j].MaxPriority
		}
		return out[i].Schema < out[j].Schema
	})
	return out, nil
}

// History returns every notification still in the participant's journal:
// all of them, except acked notifications dropped by journal compaction
// on a past load.
func (s *Store) History(participant string) ([]Notification, error) {
	q, err := s.queueFor(participant)
	if err != nil {
		return nil, err
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return nil, errClosed()
	}
	out := make([]Notification, len(q.notifs))
	for i := range out {
		out[i] = q.at(i)
	}
	return out, nil
}

// Ack marks a notification acknowledged, durably. The ack record rides
// the queue's commit groups like enqueues do.
func (s *Store) Ack(participant string, id int64) error {
	q, err := s.queueFor(participant)
	if err != nil {
		return err
	}
	m := s.metrics.Load()
	q.mu.Lock()
	defer q.mu.Unlock()
	if err := q.usable(); err != nil {
		return err
	}
	i, ok := q.byID[id]
	if !ok {
		return fmt.Errorf("delivery: participant %q has no notification %d: %w", participant, id, core.ErrNotFound)
	}
	if q.notifs[i].Acked {
		return nil
	}
	payload := wire.GetBuf(16)
	payload = appendRecordAck(payload, id)
	rec := wire.GetBuf(len(payload) + 16)
	rec = wire.AppendFrame(rec, payload)
	rec = append(rec, '\n')
	wire.PutBuf(payload)
	q.notifs[i].Acked = true
	q.pending--
	s.pendingTotal.Add(-1)
	if m != nil {
		m.acked.Inc()
	}
	err = q.appendCommit(rec, 1, nil, m, s.syncOnCommit)
	wire.PutBuf(rec)
	return err
}

// Watch returns a channel receiving notifications as they are enqueued
// for the participant. Slow receivers miss notifications rather than
// blocking delivery; Pending is the catch-up path.
func (s *Store) Watch(participant string) (<-chan Notification, error) {
	q, err := s.queueFor(participant)
	if err != nil {
		return nil, err
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return nil, errClosed()
	}
	ch := make(chan Notification, 64)
	q.watches = append(q.watches, ch)
	return ch, nil
}

// Participants returns the ids with a queue on disk or in memory, sorted.
func (s *Store) Participants() ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	set := map[string]bool{}
	for p := range s.queues {
		set[p] = true
	}
	entries, err := s.fsys.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("delivery: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if filepath.Ext(name) != ".jsonl" {
			continue
		}
		p, err := url.PathUnescape(name[:len(name)-len(".jsonl")])
		if err == nil {
			set[p] = true
		}
	}
	out := make([]string, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Strings(out)
	return out, nil
}

// Close flushes and closes every queue file, waiting for in-flight
// commit groups to land first. Watch channels are closed.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	queues := make([]*queue, 0, len(s.queues))
	for _, q := range s.queues {
		queues = append(queues, q)
	}
	s.mu.Unlock()
	var firstErr error
	for _, q := range queues {
		q.mu.Lock()
		q.closed = true
		// Wait for the in-flight commit to release the file. A leader
		// still waiting its turn sees q.closed on wake and fails its
		// group without touching the file.
		for q.writing {
			q.cond.Wait()
		}
		if err := q.w.Flush(); err != nil && firstErr == nil {
			firstErr = err
		}
		if err := q.file.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		for _, ch := range q.watches {
			close(ch)
		}
		q.watches = nil
		q.mu.Unlock()
	}
	return firstErr
}
