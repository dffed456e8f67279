package delivery

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/mcc-cmi/cmi/internal/fs"
	"github.com/mcc-cmi/cmi/internal/wire"
)

// The single-pass loader and load-time compactor that preceded the
// header-first replay in store.go, kept unchanged (but for their names)
// as the differential oracle for queue.load: it decodes every record in
// full, then compacts from the decoded notifications.

// decodeRecordBinary decodes one binary journal-record payload into r.
func decodeRecordBinary(payload []byte, r *record) error {
	d := wire.NewDec(payload)
	switch d.Byte() {
	case recNotif:
		n := &Notification{ID: int64(d.Uint64LE())}
		r.Kind = "notif"
		r.Key = d.String()
		decodeNotifBody(d, n)
		r.Notif = n
	case recAck:
		r.Kind = "ack"
		r.AckID = d.Varint()
	case recKey:
		r.Kind = "key"
		r.Key = d.String()
	case recNext:
		r.Kind = "next"
		r.NextID = d.Varint()
	default:
		return fmt.Errorf("delivery: unknown binary record kind")
	}
	return d.Err()
}

// loadRef replays the journal: notifications in order, acks applied.
// Records are binary wire frames, legacy JSON lines, or a mix from an
// in-place upgrade — the scanner auto-detects per record. A torn TAIL
// (a partial frame from a crash mid-append) is tolerated and ignored;
// mid-journal corruption — a bad frame with intact frames after it —
// stops replay at the first bad record and marks the queue corrupt, so
// the damage is reported loudly instead of silently truncating history.
func (q *queue) loadRef() error {
	data, err := q.fsys.ReadFile(q.path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("delivery: %w", err)
	}
	sc := wire.NewScanner(data)
	for {
		rec, isFrame, ok := sc.Next()
		if !ok {
			break
		}
		var r record
		if isFrame {
			if decodeRecordBinary(rec, &r) != nil {
				continue // unknown kind from a newer writer; skip
			}
		} else if err := json.Unmarshal(rec, &r); err != nil {
			continue // torn write at crash; skip
		}
		switch r.Kind {
		case "notif":
			if r.Notif == nil {
				continue
			}
			q.byID[r.Notif.ID] = len(q.notifs)
			q.notifs = append(q.notifs, *r.Notif)
			if r.Key != "" {
				q.keys[r.Key] = true
			}
			if r.Notif.ID >= q.nextID {
				q.nextID = r.Notif.ID + 1
			}
		case "ack":
			if i, ok := q.byID[r.AckID]; ok {
				q.notifs[i].Acked = true
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
	for i := range q.notifs {
		if !q.notifs[i].Acked {
			q.pending++
		}
	}
	q.corrupt = sc.Torn() && sc.CorruptMidJournal()
	return nil
}

// maybeCompactRef rewrites a journal dominated by acknowledged records
// down to its live state: an id high-water mark, the idempotency keys
// (kept standalone so redelivered pushes of acked notifications still
// dedup), and the live notifications. Long-lived participants therefore
// stop paying replay cost for information they acknowledged long ago.
// The rewrite is atomic (tmp + fsync + rename + parent-dir fsync via
// fs.ReplaceFile), so a crash at any point leaves either the old or the
// new journal, never a mix; it is best-effort — on any error the
// original journal is kept untouched. A journal load marked corrupt is
// never compacted: the rewrite would destroy the damaged region fsck
// needs to diagnose and quarantine.
func (q *queue) maybeCompactRef() {
	if q.corrupt {
		return
	}
	acked := len(q.notifs) - q.pending
	if acked <= q.pending || acked < compactMinAcked {
		return
	}
	var buf, payload []byte
	writeRec := func(pay []byte) {
		payload = pay
		buf = wire.AppendFrame(buf, pay)
		buf = append(buf, '\n')
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
	for i := range q.notifs {
		if q.notifs[i].Acked {
			continue
		}
		writeRec(appendRecordNotif(payload[:0], "", &q.notifs[i]))
	}
	if fs.ReplaceFile(q.fsys, q.path, buf, true) != nil {
		return
	}
	// The in-memory queue mirrors the compacted journal: acked
	// notifications are gone from history from here on.
	live := make([]Notification, 0, q.pending)
	byID := make(map[int64]int, q.pending)
	for i := range q.notifs {
		if q.notifs[i].Acked {
			continue
		}
		byID[q.notifs[i].ID] = len(live)
		live = append(live, q.notifs[i])
	}
	q.notifs = live
	q.byID = byID
}

// genJournal builds one seeded journal mixing every record shape a
// queue load must handle: binary frames and legacy JSON lines, keyed
// and keyless notifs (some with the body's own acked byte set), acks
// before their notif, duplicate and orphan acks, key and next records,
// unknown record kinds, CRC-valid notif frames whose body does not
// decode or carries an unknown param tag, an unparsable JSON line, and
// optionally a torn tail or mid-journal corruption. The ack rate varies
// per seed, so acked counts fall below, at and above the compaction
// threshold.
func genJournal(rng *rand.Rand) []byte {
	var out []byte
	var frames [][2]int // [start, end) of each binary frame
	frame := func(p []byte) {
		start := len(out)
		out = wire.AppendFrame(out, p)
		frames = append(frames, [2]int{start, len(out)})
		out = append(out, '\n')
	}
	line := func(r record) {
		b, err := json.Marshal(r)
		if err != nil {
			panic(err)
		}
		out = append(append(out, b...), '\n')
	}
	legacy := rng.Intn(3) == 0
	ackRate := rng.Float64()
	var ids []int64
	id := int64(0)
	for i, n := 0, rng.Intn(40); i < n; i++ {
		id += 1 + int64(rng.Intn(2))
		if rng.Intn(25) == 0 {
			id-- // a duplicate or regressed id
		}
		nt := Notification{ID: id, Time: time.Unix(1_700_000_000+int64(rng.Intn(1000)), int64(rng.Intn(1e9))).UTC(),
			Schema: "S", Description: fmt.Sprintf("d%d", i), Priority: rng.Intn(3), Acked: rng.Intn(10) == 0}
		key := ""
		if rng.Intn(3) == 0 {
			key = fmt.Sprintf("k%d", i)
		}
		if legacy && rng.Intn(2) == 0 {
			if rng.Intn(2) == 0 {
				nt.Params = map[string]any{"s": "v", "f": float64(i), "b": true, "l": []any{"a", "b"}}
			}
			line(record{Kind: "notif", Key: key, Notif: &nt})
		} else {
			switch rng.Intn(4) {
			case 0:
				nt.Params = map[string]any{"s": "v", "i": int64(-i), "f": 1.5, "b": false, "n": nil,
					"ss": []string{"x", "y"}, "m": map[string]any{"a": 1.0}, "bad": func() {}}
			case 1:
				nt.Params = map[string]any{"k": "v"}
			}
			p := appendRecordNotif(nil, key, &nt)
			switch rng.Intn(12) {
			case 0: // CRC-valid but the body does not decode: skipped whole
				p = appendRecordNotif(nil, fmt.Sprintf("trunc%d", i), &Notification{ID: id + 1000, Params: nt.Params})
				p = p[:len(p)-1-rng.Intn(len(p)-9)]
			case 1: // an unknown param tag decodes to nil
				if len(nt.Params) == 1 {
					p[len(p)-3] = 7
				}
			}
			frame(p)
		}
		ids = append(ids, id)
		for rng.Float64() < ackRate*0.9 {
			ack := ids[rng.Intn(len(ids))]
			switch rng.Intn(10) {
			case 0:
				ack = id + 1 + int64(rng.Intn(3)) // before its notif
			case 1:
				ack = 1 << 40 // orphan
			}
			if legacy && rng.Intn(2) == 0 {
				line(record{Kind: "ack", AckID: ack})
			} else {
				frame(appendRecordAck(nil, ack))
			}
		}
		switch rng.Intn(20) {
		case 0:
			frame(appendRecordKey(nil, fmt.Sprintf("bare%d", i)))
		case 1:
			frame(appendRecordNext(nil, id+int64(rng.Intn(5))-2))
		case 2:
			frame([]byte{9, 1, 2}) // an unknown kind from a newer writer
		case 3:
			line(record{Kind: "bogus", AckID: id})
		case 4:
			if legacy {
				out = append(out, "{\"kind\":\"notif\",\"no"...)
				out = append(out, '\n')
			}
		}
	}
	switch rng.Intn(6) {
	case 0: // torn tail
		t := wire.AppendFrame(nil, appendRecordAck(nil, 1))
		out = append(out, t[:1+rng.Intn(len(t)-1)]...)
	case 1: // mid-journal corruption
		if len(frames) >= 2 {
			f := frames[rng.Intn(len(frames)-1)]
			out[f[1]-1] ^= 0x40
		}
	}
	return out
}

// loadedQueue opens the journal on a fresh in-memory filesystem (wrapped
// by wrap when non-nil) and replays it with load, or with the reference
// loader and compactor when ref is set. It returns the queue, the
// journal bytes the load left on disk and, for the reference, the
// acked count the compaction decision saw.
func loadedQueue(t *testing.T, journal []byte, ref bool, wrap func(fs.FS) fs.FS) (*queue, []byte, int) {
	t.Helper()
	mem := newMemFS()
	mem.WriteFile("q.jsonl", journal, 0o644)
	var fsys fs.FS = mem
	if wrap != nil {
		fsys = wrap(mem)
	}
	q := &queue{path: "q.jsonl", participant: "p", fsys: fsys, byID: make(map[int64]int), keys: make(map[string]bool), nextID: 1}
	var err error
	acked := 0
	if ref {
		err = q.loadRef()
		acked = len(q.notifs) - q.pending
		q.maybeCompactRef()
	} else {
		err = q.load()
	}
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := mem.files["q.jsonl.tmp"]; ok {
		t.Fatal("a compaction left its tmp file behind")
	}
	return q, mem.files["q.jsonl"], acked
}

// decodedRecords decodes a journal's record sequence in full, marking
// undecodable records, for comparing two compacted files.
func decodedRecords(data []byte) []record {
	var recs []record
	sc := wire.NewScanner(data)
	for {
		rec, isFrame, ok := sc.Next()
		if !ok {
			break
		}
		var r record
		if isFrame && decodeRecordBinary(rec, &r) != nil {
			r.Kind = "<bad frame>"
		} else if !isFrame && json.Unmarshal(rec, &r) != nil {
			r.Kind = "<bad line>"
		}
		recs = append(recs, r)
	}
	if sc.Torn() {
		recs = append(recs, record{Kind: "<torn>"})
	}
	return recs
}

// served wraps a loaded queue in a Store, its journal open for appends,
// so the public reads and writes run against it.
func served(t *testing.T, q *queue) *Store {
	t.Helper()
	f, err := q.fsys.OpenAppend(q.path)
	if err != nil {
		t.Fatal(err)
	}
	q.file, q.w, q.cond = f, bufio.NewWriter(f), sync.NewCond(&q.mu)
	return &Store{fsys: q.fsys, queues: map[string]*queue{q.participant: q}}
}

// A storeOp is one public call on participant "p" of a served queue.
type storeOp struct {
	name string
	do   func(*Store) (any, error)
}

func pendingAfter(after int64, limit int) storeOp {
	return storeOp{fmt.Sprintf("PendingAfter(%d, %d)", after, limit),
		func(s *Store) (any, error) { return s.PendingAfter("p", after, limit) }}
}

var (
	opPending = storeOp{"Pending", func(s *Store) (any, error) { return s.Pending("p") }}
	opHistory = storeOp{"History", func(s *Store) (any, error) { return s.History("p") }}
	opDigest  = storeOp{"PendingDigest", func(s *Store) (any, error) { return s.PendingDigest("p") }}
	opEnqueue = storeOp{"Enqueue", func(s *Store) (any, error) {
		return s.Enqueue("p", Notification{Time: time.Unix(1_800_000_000, 0).UTC(), Schema: "S",
			Description: "late", Priority: 1, Params: map[string]any{"k": "v"}})
	}}
)

func opAck(id int64) storeOp {
	return storeOp{fmt.Sprintf("Ack(%d)", id), func(s *Store) (any, error) { return nil, s.Ack("p", id) }}
}

// sameAnswers runs ops in order on the lazily loaded store and on the
// reference, failing at the first answer or error that differs.
func sameAnswers(t *testing.T, seed int64, lazy, ref *Store, ops ...storeOp) {
	t.Helper()
	for _, op := range ops {
		got, gotErr := op.do(lazy)
		want, wantErr := op.do(ref)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: %s = %+v, %v; reference %+v, %v", seed, op.name, got, gotErr, want, wantErr)
		}
	}
}

// TestLoadMatchesReference is the differential oracle of the header-
// first replay: over 1,000 seeded journals, load must leave exactly the
// queue state the reference single-pass loader and compactor leave, and
// a compacted journal must decode to the same record sequence. Every
// fifth journal runs with a failing rename, so a compaction's
// fs.ReplaceFile fails: the journal must stay untouched and the full
// history in memory. A second lazy load of each journal must then
// answer every read exactly like the reference's eagerly decoded queue:
// cold, partly read, after an interleaved Ack and Enqueue, and in full.
func TestLoadMatchesReference(t *testing.T) {
	outcomes := make(map[string]int)
	for seed := int64(1); seed <= 1000; seed++ {
		journal := genJournal(rand.New(rand.NewSource(seed)))
		var wrap func(fs.FS) fs.FS
		if seed%5 == 0 {
			wrap = func(inner fs.FS) fs.FS { return fs.NewFault(inner, fs.FaultConfig{FailRenameAt: 1}) }
		}
		want, wantFile, acked := loadedQueue(t, journal, true, wrap)
		got, gotFile, _ := loadedQueue(t, journal, false, wrap)

		if len(got.notifs) != len(want.notifs) {
			t.Fatalf("seed %d: %d notifs, reference %d", seed, len(got.notifs), len(want.notifs))
		}
		for i := range want.notifs {
			if n := got.at(i); !reflect.DeepEqual(n, want.notifs[i]) {
				t.Fatalf("seed %d: notif %d = %+v, reference %+v", seed, i, n, want.notifs[i])
			}
		}
		if !reflect.DeepEqual(got.byID, want.byID) || !reflect.DeepEqual(got.keys, want.keys) {
			t.Fatalf("seed %d: byID %v keys %v, reference byID %v keys %v", seed, got.byID, got.keys, want.byID, want.keys)
		}
		if got.nextID != want.nextID || got.pending != want.pending || got.corrupt != want.corrupt {
			t.Fatalf("seed %d: next %d pending %d corrupt %v, reference %d %d %v", seed,
				got.nextID, got.pending, got.corrupt, want.nextID, want.pending, want.corrupt)
		}
		if !reflect.DeepEqual(decodedRecords(gotFile), decodedRecords(wantFile)) {
			t.Fatalf("seed %d: compacted journal records differ from the reference", seed)
		}
		rewritten := !bytes.Equal(wantFile, journal)
		if rewritten != !bytes.Equal(gotFile, journal) {
			t.Fatalf("seed %d: rewrote the journal: %v, reference %v", seed, !rewritten, rewritten)
		}
		if rewritten && wrap != nil {
			t.Fatalf("seed %d: a failed rename still replaced the journal", seed)
		}
		switch {
		case want.corrupt:
			outcomes["corrupt"]++
		case acked < compactMinAcked:
			outcomes["acked below the floor"]++
		case acked == compactMinAcked && acked > want.pending:
			outcomes["acked at the floor"]++
		case acked == want.pending:
			outcomes["acked at the live count"]++
		case acked < want.pending:
			outcomes["acked below the live count"]++
		case wrap != nil:
			// The rename failed: the journal is untouched (checked
			// above) and the acked history is still in memory.
			if len(got.notifs)-got.pending != acked {
				t.Fatalf("seed %d: after a failed rewrite %d acked notifs in memory, want %d",
					seed, len(got.notifs)-got.pending, acked)
			}
			outcomes["failed rewrite"]++
		}
		if rewritten {
			outcomes["compacted"]++
		}

		lazyQ, _, _ := loadedQueue(t, journal, false, wrap)
		refQ, _, _ := loadedQueue(t, journal, true, wrap)
		lazy, ref := served(t, lazyQ), served(t, refQ)
		first, last, mid := int64(0), int64(0), want.nextID/2
		if len(want.notifs) > 0 {
			first, last = want.notifs[0].ID, want.notifs[len(want.notifs)-1].ID
		}
		sameAnswers(t, seed, lazy, ref, pendingAfter(mid, 2), pendingAfter(0, 1), pendingAfter(-1, 3))
		sameAnswers(t, seed, lazy, ref, opAck(last), opEnqueue, opAck(first), opAck(1<<40))
		sameAnswers(t, seed, lazy, ref, pendingAfter(first, 1), pendingAfter(mid, 0), opPending,
			pendingAfter(0, 0), opDigest, opEnqueue, opAck(want.nextID), opHistory, opPending,
			pendingAfter(last-1, 2), pendingAfter(want.nextID, 0))
	}
	t.Logf("journal outcomes: %v", outcomes)
	for _, o := range []string{"corrupt", "acked below the floor", "acked at the floor", "acked at the live count",
		"acked below the live count", "failed rewrite", "compacted"} {
		if outcomes[o] == 0 {
			t.Errorf("no journal covers the outcome %q", o)
		}
	}
}

func TestCompactionCopiesLiveFramesVerbatim(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 12; i++ {
		n := wideNotification(i)
		if i%3 == 0 {
			_, _, err = s.EnqueueKeyed("alice", fmt.Sprintf("remote-%d", i), n)
		} else {
			_, err = s.Enqueue("alice", n)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for id := int64(1); id <= 7; id++ {
		if err := s.Ack("alice", id); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "alice.jsonl")
	original, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	type notifFrame struct {
		frame, body []byte
		key         string
	}
	notifFrames := func(data []byte) (map[int64]notifFrame, map[string]bool) {
		notifs, keys := make(map[int64]notifFrame), make(map[string]bool)
		sc := wire.NewScanner(data)
		for {
			rec, isFrame, ok := sc.Next()
			if !ok {
				break
			}
			var r record
			if !isFrame || decodeRecord(rec, &r) != nil {
				t.Fatalf("journal holds an undecodable record at %d", sc.Offset())
			}
			switch r.Kind {
			case "notif":
				notifs[r.id] = notifFrame{sc.Frame(), r.body, r.Key}
			case "key":
				keys[r.Key] = true
			}
		}
		return notifs, keys
	}
	before, _ := notifFrames(original)
	syncs := fs.DirSyncs()

	reopen := func() {
		t.Helper()
		s, err := NewStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		if p, err := s.Pending("alice"); err != nil || len(p) != 5 {
			t.Fatalf("pending after reopen = %d, %v; want 5", len(p), err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	reopen()
	if got := fs.DirSyncs() - syncs; got != 1 {
		t.Fatalf("compacting one queue at load cost %d dir syncs, want 1", got)
	}
	compacted, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	after, keys := notifFrames(compacted)
	if len(after) != 5 {
		t.Fatalf("compacted journal holds %d notifs, want the 5 live ones", len(after))
	}
	for id, f := range after {
		orig := before[id]
		switch {
		case orig.key == "":
			if !bytes.Equal(f.frame, orig.frame) {
				t.Fatalf("keyless notif %d: frame was re-encoded, not copied", id)
			}
		case f.key != "" || !bytes.Equal(f.body, orig.body):
			t.Fatalf("keyed notif %d: key %q, body equal %v; want an empty key around the original body",
				id, f.key, bytes.Equal(f.body, orig.body))
		case !keys[orig.key]:
			t.Fatalf("keyed notif %d: key %q lost by compaction", id, orig.key)
		}
	}
	if !keys["remote-3"] || !keys["remote-6"] {
		t.Fatalf("keys of acked notifs lost by compaction: %v", keys)
	}

	syncs = fs.DirSyncs()
	reopen()
	again, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, compacted) || fs.DirSyncs() != syncs {
		t.Fatalf("reopening the compacted journal rewrote it (bytes equal %v, dir syncs %d -> %d)",
			bytes.Equal(again, compacted), syncs, fs.DirSyncs())
	}
}
