package federation

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/mcc-cmi/cmi/internal/delivery"
	"github.com/mcc-cmi/cmi/internal/event"
	"github.com/mcc-cmi/cmi/internal/fs"
	"github.com/mcc-cmi/cmi/internal/obs"
	"github.com/mcc-cmi/cmi/internal/wire"
)

// A RemoteNotification is one awareness notification forwarded across
// domains. Key is a client-generated idempotency key: the receiving
// domain journals it with the queued notification and drops replays, so
// redelivery after an ambiguous failure is exactly-once.
type RemoteNotification struct {
	Key          string                `json:"key"`          // client-generated idempotency key
	Participant  string                `json:"participant"`  // receiving-domain participant queue
	Notification delivery.Notification `json:"notification"` // the forwarded awareness notification
}

// PushResponse reports whether the receiving domain had already seen
// the idempotency key.
type PushResponse struct {
	Duplicate bool `json:"duplicate"` // true when the key was already journaled
}

// A RemoteClient pushes awareness notifications into another CMI
// domain's federation server.
type RemoteClient struct {
	client
}

// NewRemoteClient connects a remote-delivery client to a federation
// server.
func NewRemoteClient(base string, hc *http.Client) *RemoteClient {
	return &RemoteClient{newClient(base, hc)}
}

// WithContext returns a copy whose calls are bound to ctx.
func (c *RemoteClient) WithContext(ctx context.Context) *RemoteClient {
	cp := *c
	cp.ctx = ctx
	return &cp
}

// WithResilience returns a copy whose calls run under the given retry /
// breaker policy.
func (c *RemoteClient) WithResilience(r *Resilience) *RemoteClient {
	cp := *c
	cp.res = r
	return &cp
}

// Push delivers one notification. The idempotency key makes the call
// safe to retry; duplicate reports that the remote had already queued
// it.
func (c *RemoteClient) Push(rn RemoteNotification) (duplicate bool, err error) {
	var out PushResponse
	if err := c.doIdem("POST", "/api/remote/notifications", rn, &out); err != nil {
		return false, err
	}
	return out.Duplicate, nil
}

// spoolEntry is one queued remote notification awaiting delivery.
type spoolEntry struct {
	Key          string                `json:"key"`
	Participant  string                `json:"participant"`
	Notification delivery.Notification `json:"notification"`
	Spooled      time.Time             `json:"spooled"`
}

// spoolRecord is one record of the spool journal: a "push" appends an
// entry, a "done" marks its key delivered. The struct and its json tags
// remain for the legacy JSON-lines decode path; new records are written
// as binary wire frames (spoolPush / spoolDone below).
type spoolRecord struct {
	Kind string      `json:"kind"`
	Push *spoolEntry `json:"push,omitempty"`
	Key  string      `json:"key,omitempty"`
}

// Binary spool record kind codes — part of the on-disk format.
const (
	spoolPush = 1
	spoolDone = 2
)

// appendSpoolRecord encodes r as one framed, newline-terminated journal
// record onto dst.
func appendSpoolRecord(dst []byte, r *spoolRecord) []byte {
	payload := wire.GetBuf(256)
	if r.Kind == "push" {
		e := r.Push
		payload = append(payload, spoolPush)
		payload = wire.AppendString(payload, e.Key)
		payload = wire.AppendString(payload, e.Participant)
		payload = delivery.AppendNotificationBinary(payload, &e.Notification)
		payload = wire.AppendTime(payload, e.Spooled)
	} else {
		payload = append(payload, spoolDone)
		payload = wire.AppendString(payload, r.Key)
	}
	dst = wire.AppendFrame(dst, payload)
	dst = append(dst, '\n')
	wire.PutBuf(payload)
	return dst
}

// decodeSpoolRecord decodes one binary record payload into r.
func decodeSpoolRecord(payload []byte, r *spoolRecord) error {
	d := wire.NewDec(payload)
	switch d.Byte() {
	case spoolPush:
		e := &spoolEntry{}
		e.Key = d.String()
		e.Participant = d.String()
		n, err := delivery.DecodeNotificationBinary(d)
		if err != nil {
			return fmt.Errorf("federation: spool record: %w", err)
		}
		e.Notification = n
		e.Spooled = d.Time()
		r.Kind, r.Push = "push", e
	case spoolDone:
		r.Kind, r.Key = "done", d.String()
	default:
		return fmt.Errorf("federation: unknown spool record kind")
	}
	return d.Err()
}

// defaultSpoolCompactEvery bounds how many delivered (push + done)
// record pairs may accumulate on disk before the journal is rewritten in
// place. Together with the compact-on-open and compact-on-drain passes
// it keeps both the file and the in-memory state proportional to the
// pending backlog, never to all-time history.
const defaultSpoolCompactEvery = 1024

// A Spool is the durable store-and-forward buffer for cross-domain
// notifications: an append-only journal of binary wire frames (same
// pattern as the delivery store's per-participant journals); journals
// written by earlier versions as JSON lines load transparently, so a
// spool upgrades in place. Entries survive restarts; a torn final
// record from a crash mid-append is tolerated on load.
//
// Delivered entries do not accumulate: Done drops the entry from memory
// immediately, and the journal is compacted — rewritten with only the
// pending entries, tmp+rename like the delivery journal — on open, when
// the spool fully drains, and whenever defaultSpoolCompactEvery done
// records have piled up on disk. Depth is an O(1) counter.
type Spool struct {
	mu   sync.Mutex
	f    fs.File
	fsys fs.FS
	path string
	// pending holds only the undelivered entries, in spool order.
	pending []spoolEntry
	// done holds the keys journaled as delivered whose push records are
	// still on disk; compaction clears it.
	done map[string]bool
	// doneRecs counts done records on disk since the last compaction.
	doneRecs     int
	compactEvery int
	closed       bool

	// hookAppend, when non-nil, is consulted before each journal
	// append — a test seam for injecting disk failures.
	hookAppend func(r *spoolRecord) error
}

// OpenSpool opens (or creates) the spool journal at path, replaying any
// existing records. If the journal holds delivered (push + done) pairs —
// or a stray temporary file from a crash mid-compaction — it is
// compacted before the spool is returned.
func OpenSpool(path string) (*Spool, error) { return OpenSpoolFS(path, nil) }

// OpenSpoolFS is OpenSpool on an explicit filesystem (nil means the
// real one) — the seam tests and the chaos oracle inject storage
// faults through.
//
// A torn final record — the artifact of a crash mid-append — is
// tolerated and dropped. Mid-journal corruption (a bad record with
// intact frames after it) fails the open loudly instead: the lost
// middle could hold push records whose redelivery the caller still
// owes, so serving the readable subset would silently violate the
// forwarder's delivery contract. Run `cmictl fsck` on the state dir.
func OpenSpoolFS(path string, fsys fs.FS) (*Spool, error) {
	fsys = fs.Or(fsys)
	if err := fsys.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("federation: spool: %w", err)
	}
	// A crash between writing the compaction tmp and renaming it leaves
	// the original journal authoritative; discard the orphan.
	fsys.Remove(path + ".tmp")
	data, err := fsys.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("federation: spool: %w", err)
	}
	f, err := fsys.OpenAppend(path)
	if err != nil {
		return nil, fmt.Errorf("federation: spool: %w", err)
	}
	s := &Spool{f: f, fsys: fsys, path: path, done: make(map[string]bool), compactEvery: defaultSpoolCompactEvery}
	var entries []spoolEntry
	sc := wire.NewScanner(data)
	for {
		rec, isFrame, ok := sc.Next()
		if !ok {
			break
		}
		var r spoolRecord
		if isFrame {
			if decodeSpoolRecord(rec, &r) != nil {
				// A checksum-valid frame that fails to decode is damage,
				// never a torn write.
				f.Close()
				return nil, fmt.Errorf("federation: spool %s is corrupt; run cmictl fsck", path)
			}
		} else if json.Unmarshal(rec, &r) != nil {
			continue // torn write from a crash mid-append
		}
		switch r.Kind {
		case "push":
			if r.Push != nil {
				entries = append(entries, *r.Push)
			}
		case "done":
			s.done[r.Key] = true
			s.doneRecs++
		}
	}
	if sc.Torn() && sc.CorruptMidJournal() {
		f.Close()
		return nil, fmt.Errorf("federation: spool %s is corrupt mid-journal at offset %d; run cmictl fsck", path, sc.TornOffset())
	}
	for _, e := range entries {
		if !s.done[e.Key] {
			s.pending = append(s.pending, e)
		}
	}
	// Any done record on disk is dead weight — its push pair (if present)
	// and itself both drop in the rewrite.
	if len(s.done) > 0 {
		if err := s.compactLocked(); err != nil {
			f.Close()
			return nil, err
		}
	}
	return s, nil
}

func (s *Spool) append(r spoolRecord) error {
	if s.hookAppend != nil {
		if err := s.hookAppend(&r); err != nil {
			return err
		}
	}
	rec := appendSpoolRecord(wire.GetBuf(256), &r)
	_, err := s.f.Write(rec)
	wire.PutBuf(rec)
	if err != nil {
		return fmt.Errorf("federation: spool: %w", err)
	}
	return nil
}

// compactLocked rewrites the journal with only the pending entries —
// tmp + fsync + rename + parent-dir fsync (fs.ReplaceFile), crash-safe:
// until the rename the old journal stays authoritative, and the dir
// fsync makes the replacement itself durable. Resets the delivered
// bookkeeping. Called with s.mu held.
func (s *Spool) compactLocked() error {
	buf := wire.GetBuf(4096)
	for i := range s.pending {
		buf = appendSpoolRecord(buf, &spoolRecord{Kind: "push", Push: &s.pending[i]})
	}
	err := fs.ReplaceFile(s.fsys, s.path, buf, true)
	wire.PutBuf(buf)
	if err != nil {
		return fmt.Errorf("federation: spool compact: %w", err)
	}
	f, err := s.fsys.OpenAppend(s.path)
	if err != nil {
		// The rename succeeded but the append handle is gone; fail loudly
		// rather than appending into the unlinked old inode.
		s.closed = true
		s.f.Close()
		return fmt.Errorf("federation: spool compact: %w", err)
	}
	s.f.Close()
	s.f = f
	if len(s.pending) == 0 {
		s.pending = nil // release the drained backlog's backing array
	}
	s.done = make(map[string]bool)
	s.doneRecs = 0
	return nil
}

// Add journals one entry for delivery.
func (s *Spool) Add(e spoolEntry) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("federation: spool closed")
	}
	if err := s.append(spoolRecord{Kind: "push", Push: &e}); err != nil {
		return err
	}
	s.pending = append(s.pending, e)
	return nil
}

// Done journals that the entry with the given key was delivered and
// drops it from the pending set. When the spool drains — or enough
// delivered pairs pile up on disk — the journal is compacted.
func (s *Spool) Done(key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("federation: spool closed")
	}
	if s.done[key] {
		return nil
	}
	if err := s.append(spoolRecord{Kind: "done", Key: key}); err != nil {
		return err
	}
	s.done[key] = true
	s.doneRecs++
	s.dropPending(key)
	if s.doneRecs >= s.compactEvery || len(s.pending) == 0 {
		return s.compactLocked()
	}
	return nil
}

// dropPending removes the entry with the given key, preserving order.
// The sweep delivers in spool order, so the match is nearly always the
// head.
func (s *Spool) dropPending(key string) {
	for i := range s.pending {
		if s.pending[i].Key == key {
			if i == 0 {
				s.pending = s.pending[1:]
			} else {
				s.pending = append(s.pending[:i], s.pending[i+1:]...)
			}
			return
		}
	}
}

// Pending returns the undelivered entries in spool order.
func (s *Spool) Pending() []spoolEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]spoolEntry, len(s.pending))
	copy(out, s.pending)
	return out
}

// Depth returns how many entries await delivery. O(1): delivered
// entries are dropped eagerly, so the pending set is the depth.
func (s *Spool) Depth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pending)
}

// Close closes the journal file.
func (s *Spool) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.f.Close()
}

// ForwarderConfig configures a Forwarder.
type ForwarderConfig struct {
	// Client pushes into the remote domain (typically carrying a
	// Resilience). Required.
	Client *RemoteClient
	// SpoolPath is the journal location. Required.
	SpoolPath string
	// Interval between redelivery sweeps (default 500ms). New entries
	// also nudge an immediate sweep.
	Interval time.Duration
	// Metrics receives spool depth, push outcomes and redelivery
	// latency; may be nil.
	Metrics *obs.Registry
	// FS is the filesystem the spool journal lives on; nil means the
	// real one. Tests and the chaos oracle inject storage faults here.
	FS fs.FS
}

// redeliveryBuckets stretch further than the RPC-latency defaults:
// time-in-spool spans outages, not round trips.
var redeliveryBuckets = []time.Duration{
	5 * time.Millisecond, 25 * time.Millisecond, 100 * time.Millisecond,
	500 * time.Millisecond, 2 * time.Second, 10 * time.Second,
	30 * time.Second, 2 * time.Minute, 10 * time.Minute,
}

// A Forwarder ships awareness notifications to one remote domain with
// store-and-forward semantics: Forward journals the notification to the
// durable spool and a background loop pushes pending entries in order,
// retrying across outages. Client-generated idempotency keys (journaled
// with each entry, so they survive restarts) are deduplicated by the
// receiving server, making delivery exactly-once.
type Forwarder struct {
	client   *RemoteClient
	spool    *Spool
	interval time.Duration

	keyPrefix string
	keySeq    atomic.Uint64

	delivered  atomic.Uint64
	duplicate  atomic.Uint64
	failed     atomic.Uint64
	doneFailed atomic.Uint64

	pushDelivered  *obs.Counter
	pushDuplicate  *obs.Counter
	pushFailed     *obs.Counter
	pushDoneFailed *obs.Counter
	redelivery     *obs.Histogram

	nudge chan struct{}
	stop  chan struct{}
	wg    sync.WaitGroup

	closeOnce sync.Once
}

// NewForwarder opens the spool and starts the redelivery loop. Entries
// already in the spool from a previous run are picked up immediately.
func NewForwarder(cfg ForwarderConfig) (*Forwarder, error) {
	if cfg.Client == nil {
		return nil, fmt.Errorf("federation: forwarder requires a client")
	}
	sp, err := OpenSpoolFS(cfg.SpoolPath, cfg.FS)
	if err != nil {
		return nil, err
	}
	iv := cfg.Interval
	if iv <= 0 {
		iv = 500 * time.Millisecond
	}
	f := &Forwarder{
		client:    cfg.Client,
		spool:     sp,
		interval:  iv,
		keyPrefix: fmt.Sprintf("%d-%d", os.Getpid(), time.Now().UnixNano()),
		nudge:     make(chan struct{}, 1),
		stop:      make(chan struct{}),
	}
	if reg := cfg.Metrics; reg != nil {
		domain := cfg.Client.base
		if u, err := url.Parse(domain); err == nil && u.Host != "" {
			domain = u.Host
		}
		lbl := obs.L("domain", domain)
		reg.GaugeFunc("cmi_federation_spool_depth",
			"Remote notifications journaled and awaiting delivery.",
			func() float64 { return float64(f.spool.Depth()) }, lbl)
		const pushHelp = "Remote notification pushes by outcome."
		f.pushDelivered = reg.Counter("cmi_federation_pushes_total", pushHelp, lbl, obs.L("result", "delivered"))
		f.pushDuplicate = reg.Counter("cmi_federation_pushes_total", pushHelp, lbl, obs.L("result", "duplicate"))
		f.pushFailed = reg.Counter("cmi_federation_pushes_total", pushHelp, lbl, obs.L("result", "failed"))
		f.pushDoneFailed = reg.Counter("cmi_federation_pushes_total", pushHelp, lbl, obs.L("result", "done-failed"))
		f.redelivery = reg.Histogram("cmi_federation_redelivery_seconds",
			"Time from spooling a remote notification to its delivery.",
			redeliveryBuckets, lbl)
	}
	if f.spool.Depth() > 0 {
		f.nudge <- struct{}{} // pick up entries journaled by a previous run
	}
	f.wg.Add(1)
	go f.loop()
	return f, nil
}

// Forward journals one notification for the remote participant and
// nudges the delivery loop. It returns as soon as the entry is durable;
// delivery happens in the background.
func (f *Forwarder) Forward(participant string, n delivery.Notification) error {
	key := fmt.Sprintf("%s-%d", f.keyPrefix, f.keySeq.Add(1))
	err := f.spool.Add(spoolEntry{
		Key:          key,
		Participant:  participant,
		Notification: n,
		Spooled:      time.Now(),
	})
	if err != nil {
		return err
	}
	select {
	case f.nudge <- struct{}{}:
	default:
	}
	return nil
}

// Hook adapts the forwarder to a delivery.DetectionHook: every detected
// awareness event is forwarded to each named participant of the remote
// domain.
func (f *Forwarder) Hook(remoteParticipants ...string) delivery.DetectionHook {
	return func(schema string, users []string, ev event.Event) {
		n := delivery.NotificationFromEvent(ev)
		for _, p := range remoteParticipants {
			f.Forward(p, n)
		}
	}
}

// Depth returns how many notifications await delivery.
func (f *Forwarder) Depth() int { return f.spool.Depth() }

// Stats reports push outcomes: delivered (first acceptance), duplicate
// (remote had the key already) and failed attempts.
func (f *Forwarder) Stats() (delivered, duplicate, failed uint64) {
	return f.delivered.Load(), f.duplicate.Load(), f.failed.Load()
}

// DoneFailures reports how many delivered entries could not be marked
// done in the spool journal (e.g. disk full). Each one will be pushed
// again on a later sweep and deduplicated by the remote.
func (f *Forwarder) DoneFailures() uint64 { return f.doneFailed.Load() }

// Close stops the redelivery loop and closes the spool. Undelivered
// entries stay journaled for the next run.
func (f *Forwarder) Close() error {
	f.closeOnce.Do(func() { close(f.stop) })
	f.wg.Wait()
	return f.spool.Close()
}

func (f *Forwarder) loop() {
	defer f.wg.Done()
	t := time.NewTicker(f.interval)
	defer t.Stop()
	for {
		select {
		case <-f.stop:
			return
		case <-f.nudge:
		case <-t.C:
		}
		f.sweep()
	}
}

// sweep pushes pending entries in spool order, stopping at the first
// failure so ordering is preserved across retries.
func (f *Forwarder) sweep() {
	for _, e := range f.spool.Pending() {
		select {
		case <-f.stop:
			return
		default:
		}
		dup, err := f.client.Push(RemoteNotification{
			Key:          e.Key,
			Participant:  e.Participant,
			Notification: e.Notification,
		})
		if err != nil {
			f.failed.Add(1)
			f.pushFailed.Inc()
			return
		}
		if dup {
			f.duplicate.Add(1)
			f.pushDuplicate.Inc()
		} else {
			f.delivered.Add(1)
			f.pushDelivered.Inc()
		}
		f.redelivery.Observe(time.Since(e.Spooled))
		if err := f.spool.Done(e.Key); err != nil {
			// The remote accepted the push but the done record did not
			// reach the journal: the entry stays pending and will be
			// redelivered (the remote dedups it by key). Stop the sweep —
			// a failing journal would fail for every entry — and make the
			// failure visible instead of looping silently.
			f.doneFailed.Add(1)
			f.pushDoneFailed.Inc()
			log.Printf("cmi: federation: marking %s done failed (will redeliver): %v", e.Key, err)
			return
		}
	}
}
