package delivery

import (
	"errors"
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/mcc-cmi/cmi/internal/fs"
	"github.com/mcc-cmi/cmi/internal/wire"
)

// memFS is an in-memory fs.FS: queue loads and compactions run against
// it without paying for real fsyncs, so tests and the load benchmark
// measure the loader, not the disk.
type memFS struct {
	mu    sync.Mutex
	files map[string][]byte
}

func newMemFS() *memFS { return &memFS{files: make(map[string][]byte)} }

type memFile struct {
	m    *memFS
	path string
}

func (f memFile) Write(p []byte) (int, error) {
	f.m.mu.Lock()
	defer f.m.mu.Unlock()
	f.m.files[f.path] = append(f.m.files[f.path], p...)
	return len(p), nil
}

func (f memFile) Sync() error  { return nil }
func (f memFile) Close() error { return nil }
func (f memFile) Name() string { return f.path }

func (m *memFS) OpenAppend(path string) (fs.File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[path]; !ok {
		m.files[path] = nil
	}
	return memFile{m, path}, nil
}

func (m *memFS) Create(path string) (fs.File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.files[path] = nil
	return memFile{m, path}, nil
}

func (m *memFS) WriteFile(path string, data []byte, _ os.FileMode) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.files[path] = append([]byte(nil), data...)
	return nil
}

func (m *memFS) ReadFile(path string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.files[path]
	if !ok {
		return nil, &os.PathError{Op: "open", Path: path, Err: os.ErrNotExist}
	}
	return append([]byte(nil), b...), nil
}

func (m *memFS) Rename(oldpath, newpath string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.files[oldpath]
	if !ok {
		return &os.PathError{Op: "rename", Path: oldpath, Err: os.ErrNotExist}
	}
	m.files[newpath] = b
	delete(m.files, oldpath)
	return nil
}

func (m *memFS) Remove(path string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.files, path)
	return nil
}

func (m *memFS) MkdirAll(string, os.FileMode) error { return nil }
func (m *memFS) SyncDir(string) error               { return nil }

// ReadDir lists the files directly inside dir; a directory holding no
// file lists empty, since MkdirAll records nothing.
func (m *memFS) ReadDir(dir string) ([]os.DirEntry, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []os.DirEntry
	for path := range m.files {
		if filepath.Dir(path) == filepath.Clean(dir) {
			out = append(out, memDirEntry(filepath.Base(path)))
		}
	}
	slices.SortFunc(out, func(a, b os.DirEntry) int { return strings.Compare(a.Name(), b.Name()) })
	return out, nil
}

// memDirEntry is a memFS file as ReadDir lists it.
type memDirEntry string

func (e memDirEntry) Name() string             { return string(e) }
func (memDirEntry) IsDir() bool                { return false }
func (memDirEntry) Type() os.FileMode          { return 0 }
func (memDirEntry) Info() (os.FileInfo, error) { return nil, errors.ErrUnsupported }

// TestPreloadOverMemFS: Preload lists the store directory through the
// store's filesystem, so a journal that exists only on an in-memory FS
// is found and replayed at startup, not on first touch.
func TestPreloadOverMemFS(t *testing.T) {
	mem := newMemFS()
	mem.WriteFile(filepath.Join("state", url.PathEscape("crew/7")+".jsonl"), restartJournal(40, 15), 0o644)
	mem.WriteFile(filepath.Join("state", "notes.txt"), []byte("not a journal"), 0o644)
	s, err := NewStoreWith("state", StoreOptions{FS: mem})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if ps, err := s.Participants(); err != nil || !slices.Equal(ps, []string{"crew/7"}) {
		t.Fatalf("Participants = %v, %v; want [crew/7]", ps, err)
	}
	if err := s.Preload(); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	_, loaded := s.queues["crew/7"]
	s.mu.Unlock()
	if !loaded {
		t.Fatal("Preload did not load the journal on the store's filesystem")
	}
	if got := s.pendingTotal.Load(); got != 25 {
		t.Fatalf("pending after preload = %d, want 25", got)
	}
}

// wideNotification has the shape of a WideMoved notification, the
// payload of the pipeline benchmark's restart image: 14 params.
func wideNotification(id int64) Notification {
	return Notification{
		ID:          id,
		Time:        time.Unix(1_700_000_000, 0).UTC(),
		Schema:      "WideMoved",
		Description: "wide moved",
		Params: map[string]any{
			"awarenessSchema": "WideMoved", "contextId": "ctx-1", "contextName": "BenchCtx",
			"deliveryAssignment": "identity", "deliveryRole": "org:Crew16", "description": "wide moved",
			"fieldName": "Wide", "intInfo": id, "newFieldValue": id, "oldFieldValue": id - 1,
			"priority": int64(0), "processInstanceId": "p-1", "processSchemaId": "Bench",
			"participants": []string{"w0", "w1"},
		},
	}
}

// restartJournal encodes one participant journal shaped like a queue of
// the restart image: n wide notifications, the first acked of them
// acknowledged by ack records that follow.
func restartJournal(n, acked int) []byte { return journalOf(n, acked, wideNotification) }

// journalOf encodes one participant journal of n notifications built by
// note, the first acked of them acknowledged by ack records that follow.
func journalOf(n, acked int, note func(id int64) Notification) []byte {
	var buf, payload []byte
	for id := int64(1); id <= int64(n); id++ {
		w := note(id)
		payload = appendRecordNotif(payload[:0], "", &w)
		buf = append(wire.AppendFrame(buf, payload), '\n')
	}
	for id := int64(1); id <= int64(acked); id++ {
		payload = appendRecordAck(payload[:0], id)
		buf = append(wire.AppendFrame(buf, payload), '\n')
	}
	return buf
}

// BenchmarkQueueLoad opens one queue shaped like a restart-image queue
// — 5,000 wide notifications, 2,700 of them acked, so load-time
// compaction runs — from a fresh copy of its journal per iteration.
func BenchmarkQueueLoad(b *testing.B) {
	journal := restartJournal(5000, 2700)
	mem := newMemFS()
	s, err := NewStoreWith("q", StoreOptions{FS: mem})
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join("q", "w0.jsonl")
	b.SetBytes(int64(len(journal)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		mem.WriteFile(path, journal, 0o644)
		b.StartTimer()
		q, err := s.newQueue("w0", path)
		if err != nil {
			b.Fatal(err)
		}
		if q.pending != 2300 || len(q.notifs) != 2300 {
			b.Fatalf("loaded %d notifs, %d pending; want 2300 live", len(q.notifs), q.pending)
		}
		q.file.Close()
	}
}

// BenchmarkQueueFirstRead is BenchmarkQueueLoad followed by the queue's
// first Pending read, which decodes the 2,300 live bodies load left
// encoded: the cost decode-on-read moved off the boot path.
func BenchmarkQueueFirstRead(b *testing.B) {
	journal := restartJournal(5000, 2700)
	mem := newMemFS()
	s, err := NewStoreWith("q", StoreOptions{FS: mem})
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join("q", "w0.jsonl")
	b.SetBytes(int64(len(journal)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		mem.WriteFile(path, journal, 0o644)
		b.StartTimer()
		q, err := s.newQueue("w0", path)
		if err != nil {
			b.Fatal(err)
		}
		s.mu.Lock()
		s.queues["w0"] = q
		s.mu.Unlock()
		p, err := s.Pending("w0")
		if err != nil || len(p) != 2300 {
			b.Fatalf("first read returned %d notifs (%v); want 2300", len(p), err)
		}
		s.mu.Lock()
		delete(s.queues, "w0")
		s.mu.Unlock()
		q.file.Close()
	}
}

// stubs counts the notifications a queue still holds undecoded.
func stubs(q *queue) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := 0
	for _, b := range q.bodies {
		if b != nil {
			n++
		}
	}
	return n
}

// TestReadsDecodeOnlyWhatTheyReturn: load decodes no body; each read
// decodes exactly the stubs it returns, once, and acked history no read
// returns stays encoded.
func TestReadsDecodeOnlyWhatTheyReturn(t *testing.T) {
	mem := newMemFS()
	s, err := NewStoreWith("q", StoreOptions{FS: mem})
	if err != nil {
		t.Fatal(err)
	}
	// 25 of 40 acked: compaction leaves ids 26..40, all stubs.
	mem.WriteFile(filepath.Join("q", "c.jsonl"), restartJournal(40, 25), 0o644)
	// 10 of 40 acked: no compaction, all 40 stay, all stubs.
	mem.WriteFile(filepath.Join("q", "u.jsonl"), restartJournal(40, 10), 0o644)
	c, err := s.queueFor("c")
	if err != nil {
		t.Fatal(err)
	}
	u, err := s.queueFor("u")
	if err != nil {
		t.Fatal(err)
	}
	step := func(what string, q *queue, want int) {
		t.Helper()
		if got := stubs(q); got != want {
			t.Fatalf("%s: %d stubs left, want %d", what, got, want)
		}
	}
	wantNotif := func(n Notification, acked bool) {
		t.Helper()
		w := wideNotification(n.ID)
		w.Acked = acked
		if n.Time = n.Time.UTC(); !reflect.DeepEqual(n, w) {
			t.Fatalf("read %+v, want %+v", n, w)
		}
	}
	step("load", c, 15)
	step("load", u, 40)
	// The compacted queue's stubs pin a copy of the 15 notifications it
	// wrote, not a buffer sized for the old journal of 40 and 25 acks.
	if journal, pinned := len(restartJournal(40, 25)), cap(c.bodies[0]); pinned > journal/2 {
		t.Fatalf("compacted stubs pin %d bytes; the old journal had %d", pinned, journal)
	}

	p, err := s.PendingAfter("c", 0, 4)
	if err != nil || len(p) != 4 || p[0].ID != 26 {
		t.Fatalf("PendingAfter(0, 4) = %d notifs from %v (%v)", len(p), p, err)
	}
	step("PendingAfter(0, 4)", c, 11)
	if p, err = s.PendingAfter("c", 30, 0); err != nil || len(p) != 10 {
		t.Fatalf("PendingAfter(30, 0) = %d notifs (%v), want 10", len(p), err)
	}
	step("PendingAfter(30, 0)", c, 1) // only id 30 was never returned
	if err := s.Ack("c", 30); err != nil {
		t.Fatal(err)
	}
	if p, err = s.Pending("c"); err != nil || len(p) != 14 {
		t.Fatalf("Pending = %d notifs (%v), want 14", len(p), err)
	}
	for _, n := range p {
		wantNotif(n, false)
	}
	step("Ack(30) + Pending", c, 1)
	h, err := s.History("c")
	if err != nil || len(h) != 15 {
		t.Fatalf("History = %d notifs (%v), want 15", len(h), err)
	}
	wantNotif(h[4], true) // decoded after its ack: the ack wins over the body's byte
	step("History", c, 0)

	if p, err = s.Pending("u"); err != nil || len(p) != 30 {
		t.Fatalf("Pending = %d notifs (%v), want 30", len(p), err)
	}
	step("Pending of an uncompacted queue", u, 10) // the acked history, never read
	if h, err = s.History("u"); err != nil || len(h) != 40 {
		t.Fatalf("History = %d notifs (%v), want 40", len(h), err)
	}
	for i, n := range h {
		wantNotif(n, i < 10)
	}
	step("History of an uncompacted queue", u, 0)
}

// TestLoadAllocsIndependentOfParams: load decodes no body, so what it
// allocates depends on the record count, not on what a body holds — a
// 14-param journal loads with as many allocations as a 1-param one of
// the same length, with and without load-time compaction.
func TestLoadAllocsIndependentOfParams(t *testing.T) {
	oneParam := func(id int64) Notification {
		n := wideNotification(id)
		n.Params = map[string]any{"intInfo": id}
		return n
	}
	allocs := func(journal []byte) float64 {
		mem := newMemFS()
		s, err := NewStoreWith("q", StoreOptions{FS: mem})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join("q", "w0.jsonl")
		// A collection cycle allocates on its own account, and bigger
		// journals run more of them: count with the collector off.
		runtime.GC()
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		return testing.AllocsPerRun(10, func() {
			mem.WriteFile(path, journal, 0o644)
			q, err := s.newQueue("w0", path)
			if err != nil {
				t.Fatal(err)
			}
			q.file.Close()
		})
	}
	for _, acked := range []int{50, 300} { // below and above the compaction threshold
		one, wide := allocs(journalOf(500, acked, oneParam)), allocs(journalOf(500, acked, wideNotification))
		if wide != one {
			t.Errorf("%d acked: loading 500 14-param notifs costs %.0f allocs, 1-param ones %.0f", acked, wide, one)
		}
	}
}

// TestColdQueueConcurrentFirstReads races the first reads of preloaded,
// still undecoded queues — Pending, and PendingAfter paged the way the
// stream hub replays — against Acks and fan-outs to the same queues.
// Every read must return ids in order, each notification decoded from
// its own body, and in the end every queue must hold each loaded and
// each fanned-out notification exactly once.
func TestColdQueueConcurrentFirstReads(t *testing.T) {
	const (
		loaded  = 300
		fanouts = 2
		perFan  = 25
	)
	dir := t.TempDir()
	users := []string{"w0", "w1", "w2", "w3"}
	firstLive := map[string]int64{"w0": 201, "w1": 201, "w2": 51, "w3": 51}
	for _, u := range users {
		// w0, w1 compact at load (200 of 300 acked); w2, w3 do not.
		journal := restartJournal(loaded, int(firstLive[u]-1))
		if err := os.WriteFile(filepath.Join(dir, u+".jsonl"), journal, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Preload(); err != nil {
		t.Fatal(err)
	}
	// check reports what is wrong with a notification read back, if
	// anything: a loaded one must carry its own body, a fanned-out one
	// its own fan-out.
	check := func(n Notification) string {
		if n.ID <= loaded {
			if n.Description != "wide moved" || n.Params["intInfo"] != n.ID {
				return fmt.Sprintf("loaded notif %d decoded as %+v", n.ID, n)
			}
		} else if k, ok := n.Params["k"].(int64); n.Schema != "Fan" || !ok || n.Description != fmt.Sprintf("f%d", k) {
			return fmt.Sprintf("fanned-out notif %d read as %+v", n.ID, n)
		}
		return ""
	}
	ordered := func(who string, ns []Notification, after int64) {
		for _, n := range ns {
			if n.ID <= after {
				t.Errorf("%s: id %d after id %d", who, n.ID, after)
				return
			}
			if msg := check(n); msg != "" {
				t.Errorf("%s: %s", who, msg)
				return
			}
			after = n.ID
		}
	}

	start := make(chan struct{})
	var writers, readers sync.WaitGroup
	var fanDone atomic.Bool
	for f := 0; f < fanouts; f++ {
		writers.Add(1)
		go func(f int) {
			defer writers.Done()
			<-start
			for i := 0; i < perFan; i++ {
				k := int64(f*perFan + i)
				n := Notification{Schema: "Fan", Description: fmt.Sprintf("f%d", k), Params: map[string]any{"k": k}}
				out, _, err := s.EnqueueFanout(users, "", n)
				if err != nil {
					t.Errorf("fan-out %d: %v", k, err)
					return
				}
				for j, o := range out {
					if o.ID <= loaded {
						t.Errorf("fan-out %d to %s got id %d", k, users[j], o.ID)
					}
				}
			}
		}(f)
	}
	streamed := make([]map[int64]bool, len(users))
	for i, u := range users {
		streamed[i] = make(map[int64]bool)
		writers.Add(1)
		go func() { // ack the first 50 live notifications, in order
			defer writers.Done()
			<-start
			for id := firstLive[u]; id < firstLive[u]+50; id++ {
				if err := s.Ack(u, id); err != nil {
					t.Errorf("Ack(%s, %d): %v", u, id, err)
					return
				}
			}
		}()
		readers.Add(2)
		go func() {
			defer readers.Done()
			<-start
			for r := 0; r < 5; r++ {
				p, err := s.Pending(u)
				if err != nil {
					t.Errorf("Pending(%s): %v", u, err)
					return
				}
				ordered("Pending("+u+")", p, 0) // one priority: id order
			}
		}()
		go func(seen map[int64]bool) { // the stream hub's cursor replay
			defer readers.Done()
			<-start
			cursor := int64(0)
			for {
				done := fanDone.Load()
				batch, err := s.PendingAfter(u, cursor, 16)
				if err != nil {
					t.Errorf("PendingAfter(%s, %d): %v", u, cursor, err)
					return
				}
				ordered(fmt.Sprintf("PendingAfter(%s, %d)", u, cursor), batch, cursor)
				for _, n := range batch {
					seen[n.ID] = true
				}
				if len(batch) == 0 {
					if done {
						return
					}
					runtime.Gosched()
					continue
				}
				cursor = batch[len(batch)-1].ID
			}
		}(streamed[i])
	}
	close(start)
	writers.Wait()
	fanDone.Store(true)
	readers.Wait()

	for i, u := range users {
		h, err := s.History(u)
		if err != nil {
			t.Fatal(err)
		}
		ordered("History("+u+")", h, 0)
		fanned := make(map[int64]bool)
		for _, n := range h {
			switch {
			case n.ID > loaded:
				k := n.Params["k"].(int64)
				if fanned[k] {
					t.Fatalf("%s: fan-out %d queued twice", u, k)
				}
				fanned[k] = true
				if n.Acked || !streamed[i][n.ID] {
					t.Fatalf("%s: fan-out %d (id %d) acked %v, streamed %v", u, k, n.ID, n.Acked, streamed[i][n.ID])
				}
			case n.Acked != (n.ID < firstLive[u]+50):
				t.Fatalf("%s: notif %d acked %v", u, n.ID, n.Acked)
			case !n.Acked && !streamed[i][n.ID]:
				t.Fatalf("%s: live notif %d never streamed", u, n.ID)
			}
		}
		wantLoaded := loaded
		if firstLive[u] > 100 {
			wantLoaded = loaded - int(firstLive[u]-1) // compacted away
		}
		if len(fanned) != fanouts*perFan || len(h) != wantLoaded+fanouts*perFan {
			t.Fatalf("%s: history holds %d notifs, %d fan-outs; want %d, %d",
				u, len(h), len(fanned), wantLoaded+fanouts*perFan, fanouts*perFan)
		}
		if p, _ := s.Pending(u); len(p) != loaded-int(firstLive[u]-1)-50+fanouts*perFan {
			t.Fatalf("%s: %d pending after the race", u, len(p))
		}
	}
}
