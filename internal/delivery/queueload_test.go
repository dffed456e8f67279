package delivery

import (
	"os"
	"path/filepath"
	"sync"
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
func restartJournal(n, acked int) []byte {
	var buf, payload []byte
	for id := int64(1); id <= int64(n); id++ {
		w := wideNotification(id)
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
