package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	cmifs "github.com/mcc-cmi/cmi/internal/fs"
)

// A span is one interval at a layer boundary. Spans of one client
// request share Op; Parent is the id of the span that caused it (0 for
// a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// The stage chain of one notification-causing request. Each stage is a
// span with its own two stamps; whatever falls between consecutive
// stages is unaccounted time and is reported, not dropped.
var stageChain = []string{
	"federation.request_in", // client send -> handler enter
	"enact.apply",           // handler enter -> first WAL write
	"fs.wal_commit",         // first WAL write -> last WAL write/fsync end
	"awareness.detect",      // WAL commit end -> first delivery-journal write
	"fs.journal_commit",     // first journal write -> last journal write/fsync end
	"stream.broadcast",      // commit hook enter -> return
	"stream.push",           // commit hook return -> frame parsed at the subscriber
}

// File classes the filesystem shim keys its spans by.
const (
	fileWAL     = "enact.wal"
	fileJournal = "journal"
	fileSpool   = "spool"
	fileOther   = "other"
)

func fileClass(path string) string {
	base := filepath.Base(path)
	switch {
	case strings.HasPrefix(base, "enact.wal"):
		return fileWAL
	case strings.HasPrefix(base, "spool."):
		return fileSpool
	case strings.HasSuffix(base, ".jsonl") || strings.HasSuffix(base, ".jsonl.tmp"):
		return fileJournal
	}
	return fileOther
}

// stamps are the boundary times of the request in flight. The traced
// run has one request in flight at a time, so the shims need no request
// id of their own: whatever they see belongs to the current request.
type stamps struct {
	op                 int
	name               string // METHOD route, for the root span
	send, recv         int64
	handlerIn, handler int64 // handler enter, return
	first, last        map[string]int64
	hookOut            int64 // return of the request's last commit hook
	frame              int64
	io                 []span // fs.write / fs.sync / fs.rename, Name suffixed with the file class
	hooks              []span // commit-hook calls (stream.broadcast)
}

// A tracer records spans in memory and writes them out as JSONL when
// the run ends.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	cur   *stamps
	spans []span
	ops   int

	syncs, bytes      int64
	ioNs              int64 // time inside filesystem calls
	emitted, detected int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a request at client send; the previous one, if any, is
// finished first.
func (t *tracer) begin(name string) {
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.finishLocked()
	t.ops++
	t.cur = &stamps{op: t.ops, name: name, send: now, first: map[string]int64{}, last: map[string]int64{}}
}

// received stamps the response fully read by the client.
func (t *tracer) received() {
	now := t.now()
	t.mu.Lock()
	if t.cur != nil {
		t.cur.recv = now
	}
	t.mu.Unlock()
}

// frame stamps the request's notification parsed at the subscriber.
func (t *tracer) frame(at int64) {
	t.mu.Lock()
	if t.cur != nil {
		t.cur.frame = at
	}
	t.mu.Unlock()
}

func (t *tracer) flush() {
	t.mu.Lock()
	t.finishLocked()
	t.mu.Unlock()
}

// io records one filesystem call.
func (t *tracer) io(kind, path string, start, end int64, n int) {
	class := fileClass(path)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ioNs += end - start
	switch kind {
	case "fs.sync":
		t.syncs++
	case "fs.write":
		t.bytes += int64(n)
	}
	c := t.cur
	if c == nil {
		t.spans = append(t.spans, span{ID: len(t.spans) + 1, Name: kind + ":" + class, Start: start, End: end})
		return
	}
	if _, ok := c.first[class]; !ok {
		c.first[class] = start
	}
	c.last[class] = end
	c.io = append(c.io, span{Name: kind + ":" + class, Start: start, End: end})
}

// hook records one commit-hook call (the store's OnCommit, i.e.
// stream.Hub.Broadcast).
func (t *tracer) hook(start, end int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if c := t.cur; c != nil {
		c.hooks = append(c.hooks, span{Name: "stream.broadcast", Start: start, End: end})
		c.hookOut = end
	}
}

// finishLocked turns the current request's stamps into its span tree.
func (t *tracer) finishLocked() {
	c := t.cur
	t.cur = nil
	if c == nil || c.recv == 0 {
		return
	}
	add := func(parent int, name string, start, end int64) int {
		if start == 0 || end == 0 || end < start {
			return 0
		}
		id := len(t.spans) + 1
		t.spans = append(t.spans, span{ID: id, Parent: parent, Op: c.op, Name: name, Start: start, End: end})
		return id
	}
	end := c.recv
	if c.frame > end {
		end = c.frame
	}
	root := add(0, "client.op "+c.name, c.send, end)
	add(root, "federation.request_in", c.send, c.handlerIn)
	h := add(root, "federation.handler", c.handlerIn, c.handler)
	add(root, "federation.response_out", c.handler, c.recv)
	if c.frame != 0 {
		add(root, "client.notify", c.send, c.frame)
		add(root, "stream.push", c.hookOut, c.frame)
	}
	commit := map[string]int{}
	if w, ok := c.first[fileWAL]; ok {
		add(h, "enact.apply", c.handlerIn, w)
		commit[fileWAL] = add(h, "fs.wal_commit", w, c.last[fileWAL])
	}
	if j, ok := c.first[fileJournal]; ok {
		if w, ok := c.last[fileWAL]; ok {
			add(h, "awareness.detect", w, j)
		}
		commit[fileJournal] = add(h, "fs.journal_commit", j, c.last[fileJournal])
	}
	for _, s := range c.hooks {
		add(h, s.Name, s.Start, s.End)
	}
	for _, s := range c.io {
		parent := h
		if p, ok := commit[s.Name[strings.IndexByte(s.Name, ':')+1:]]; ok {
			parent = p
		}
		add(parent, s.Name, s.Start, s.End)
	}
}

// writeJSONL writes every span, one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval its child spans cover (overlapping children are not
// counted twice).
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, upTo := int64(0), s.Start
		for _, k := range kids {
			a, b := k.Start, k.End
			if a < upTo {
				a = upTo
			}
			if b > s.End {
				b = s.End
			}
			if b > a {
				covered += b - a
				upTo = b
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// A stageSum is what the stage chain adds up to over a set of requests.
type stageSum struct {
	requests    int              // requests that produced a notification frame
	e2e         int64            // sum of client.notify durations
	stages      map[string]int64 // sum of each chain stage's durations
	unaccounted float64          // |e2e - sum of stages| / e2e
}

// sumStages adds up the stage chain over every request that has a
// client.notify span.
func sumStages(spans []span) stageSum {
	byOp := map[int][]span{}
	for _, s := range spans {
		if s.Op != 0 {
			byOp[s.Op] = append(byOp[s.Op], s)
		}
	}
	out := stageSum{stages: map[string]int64{}}
	var total int64
	for _, ss := range byOp {
		var notify int64
		for _, s := range ss {
			if s.Name == "client.notify" {
				notify = s.dur()
			}
		}
		if notify == 0 {
			continue
		}
		out.requests++
		out.e2e += notify
		for _, s := range ss {
			for _, stage := range stageChain {
				if s.Name == stage {
					out.stages[stage] += s.dur()
					total += s.dur()
				}
			}
		}
	}
	if out.e2e > 0 {
		d := out.e2e - total
		if d < 0 {
			d = -d
		}
		out.unaccounted = float64(d) / float64(out.e2e)
	}
	return out
}

// meanMs returns the mean duration, in ms, of the spans with the given
// name (0 when there are none).
func meanMs(spans []span, name string) float64 {
	var sum int64
	n := 0
	for _, s := range spans {
		if s.Name == name {
			sum += s.dur()
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n) / 1e6
}

// ---- the filesystem shim ----

// tracedFS decorates an fs.FS: every Write, Sync and Rename becomes a
// span keyed by file class.
type tracedFS struct {
	cmifs.FS
	t *tracer
}

type tracedFile struct {
	cmifs.File
	t *tracer
}

func (f tracedFS) OpenAppend(path string) (cmifs.File, error) {
	file, err := f.FS.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return tracedFile{file, f.t}, nil
}

func (f tracedFS) Create(path string) (cmifs.File, error) {
	file, err := f.FS.Create(path)
	if err != nil {
		return nil, err
	}
	return tracedFile{file, f.t}, nil
}

func (f tracedFS) Rename(oldpath, newpath string) error {
	t0 := f.t.now()
	err := f.FS.Rename(oldpath, newpath)
	f.t.io("fs.rename", newpath, t0, f.t.now(), 0)
	return err
}

func (f tracedFile) Write(p []byte) (int, error) {
	t0 := f.t.now()
	n, err := f.File.Write(p)
	f.t.io("fs.write", f.Name(), t0, f.t.now(), n)
	return n, err
}

func (f tracedFile) Sync() error {
	t0 := f.t.now()
	err := f.File.Sync()
	f.t.io("fs.sync", f.Name(), t0, f.t.now(), 0)
	return err
}

// handlerEnter and handlerReturn stamp the http.Handler shim.
func (t *tracer) handlerEnter() {
	now := t.now()
	t.mu.Lock()
	if t.cur != nil {
		t.cur.handlerIn = now
	}
	t.mu.Unlock()
}

func (t *tracer) handlerReturn() {
	now := t.now()
	t.mu.Lock()
	if t.cur != nil {
		t.cur.handler = now
	}
	t.mu.Unlock()
}

func (t *tracer) count(n *int64) {
	t.mu.Lock()
	*n++
	t.mu.Unlock()
}

// ioNanos is the total time spent inside filesystem calls so far.
func (t *tracer) ioNanos() int64 { return t.load(&t.ioNs) }

func (t *tracer) load(n *int64) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return *n
}
