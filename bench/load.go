package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// A conn is one load connection: an http.Client whose transport keeps
// exactly one keep-alive connection, so "2 clients" means 2 sockets.
type conn struct {
	hc    *http.Client
	trace *tracer // traced run only: stamps client send and response read
}

func newConn(e *env) *conn {
	tr := &http.Transport{
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}
	e.onClose(tr.CloseIdleConnections)
	return &conn{hc: &http.Client{Transport: tr, Timeout: 20 * time.Second}}
}

// do issues one request and returns the body when the status is 2xx.
func (c *conn) do(ctx context.Context, method, url, body string) ([]byte, error) {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil, err
	}
	if c.trace != nil {
		c.trace.begin(method + " " + req.URL.Path)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if c.trace != nil {
		c.trace.received()
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: HTTP %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, nil
}

// getJSON GETs url and decodes the response into v.
func (c *conn) getJSON(ctx context.Context, url string, v any) error {
	b, err := c.do(ctx, http.MethodGet, url, "")
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

// opKind classifies a sample for the end-to-end metrics.
type opKind uint8

const (
	kindWrite opKind = iota // PUT/POST: op_* metrics
	kindRead                // GET: read_* metrics
)

// A sample is one completed client operation.
type sample struct {
	kind  opKind
	start int64 // ns since the recorder's epoch
	end   int64
}

// A recorder collects one client's samples; each client goroutine owns
// one, so recording takes no lock.
type recorder struct {
	epoch     time.Time
	samples   []sample
	attempted int
	failed    int
	firstErr  error
}

func newRecorder(epoch time.Time) *recorder {
	return &recorder{epoch: epoch, samples: make([]sample, 0, 1<<16)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// fail counts one failed attempt or failed check.
func (r *recorder) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// timed runs one client operation and records it. A failed operation
// counts against fail_ratio and yields no latency sample.
func (r *recorder) timed(ctx context.Context, c *conn, kind opKind, method, url, body string) ([]byte, int64, error) {
	r.attempted++
	t0 := r.now()
	b, err := c.do(ctx, method, url, body)
	t1 := r.now()
	if err != nil {
		if ctx.Err() == nil {
			r.fail(err)
		} else {
			r.attempted-- // cancelled mid-flight by the end of the run: not an attempt
		}
		return nil, t0, err
	}
	r.samples = append(r.samples, sample{kind: kind, start: t0, end: t1})
	return b, t0, nil
}

// check counts one output verification.
func (r *recorder) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.fail(fmt.Errorf(format, args...))
	}
}

// A frame is one notification event parsed off an SSE stream.
type frame struct {
	id    int64
	value int64 // params.newFieldValue
	at    int64 // ns since the recorder's epoch, stamped after the parse
}

// A subscriber is one SSE subscription on its own connection. It keeps
// every frame in arrival order so that duplicates and reordering are
// visible to the verifier (the in-repo stream client would hide them).
type subscriber struct {
	frames []frame
	err    error
	done   chan struct{}
	cancel context.CancelFunc
	latest chan arrival // holds the most recent arrival; older ones are dropped
	seen   arrival      // last arrival taken off latest; owned by the waitFrames caller
}

// An arrival reports the n-th frame to whoever waits on the subscriber.
type arrival struct {
	n int
	f frame
}

// subscribe opens GET /api/stream/notifications for participant and
// parses frames until the context ends. It returns once the server's
// hello event has arrived, so the session is registered before load
// starts.
func subscribe(ctx context.Context, e *env, base, participant string, epoch time.Time) (*subscriber, error) {
	ctx, cancel := context.WithCancel(ctx)
	tr := &http.Transport{MaxConnsPerHost: 1, DisableCompression: true}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		base+"/api/stream/notifications?participant="+participant+"&cursor=0", nil)
	if err != nil {
		cancel()
		return nil, err
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := (&http.Client{Transport: tr}).Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("subscribe %s: HTTP %d", participant, resp.StatusCode)
	}
	s := &subscriber{done: make(chan struct{}), cancel: cancel, latest: make(chan arrival, 1)}
	e.onClose(s.close)
	hello := make(chan struct{})
	go func() {
		defer close(s.done)
		defer resp.Body.Close()
		defer tr.CloseIdleConnections()
		s.err = s.read(resp.Body, epoch, hello)
		if ctx.Err() != nil {
			s.err = nil // ended by us
		}
	}()
	select {
	case <-hello:
		return s, nil
	case <-s.done:
		cancel()
		return nil, fmt.Errorf("subscribe %s: stream ended before hello: %v", participant, s.err)
	case <-time.After(10 * time.Second):
		s.close()
		return nil, fmt.Errorf("subscribe %s: no hello after 10s", participant)
	}
}

func (s *subscriber) close() {
	s.cancel()
	<-s.done
}

// read parses the SSE stream: `event:`/`id:`/`data:` lines, a blank line
// ends a frame.
func (s *subscriber) read(body io.Reader, epoch time.Time, hello chan struct{}) error {
	br := bufio.NewReaderSize(body, 64<<10)
	var event string
	var data []byte
	saidHello := false
	for {
		line, err := br.ReadSlice('\n')
		if err != nil {
			return err
		}
		line = bytes.TrimRight(line, "\r\n")
		switch {
		case len(line) == 0:
			if event == "hello" && !saidHello {
				saidHello = true
				close(hello)
			}
			if event == "notification" && len(data) > 0 {
				var n struct {
					ID     int64 `json:"id"`
					Params struct {
						Value int64 `json:"newFieldValue"`
					} `json:"params"`
				}
				if err := json.Unmarshal(data, &n); err != nil {
					return fmt.Errorf("bad notification frame: %w", err)
				}
				f := frame{id: n.ID, value: n.Params.Value, at: int64(time.Since(epoch))}
				s.frames = append(s.frames, f)
				select { // this goroutine is the only sender, so the send below cannot block
				case <-s.latest:
				default:
				}
				s.latest <- arrival{n: len(s.frames), f: f}
			}
			event, data = "", data[:0]
		case bytes.HasPrefix(line, []byte("event:")):
			event = string(bytes.TrimSpace(line[6:]))
		case bytes.HasPrefix(line, []byte("data:")):
			data = append(data, bytes.TrimSpace(line[5:])...)
		}
	}
}

// waitFrames blocks until the subscriber has parsed at least n frames or
// the timeout passes; it returns the latest frame seen and whether it
// got there.
func (s *subscriber) waitFrames(n int, timeout time.Duration) (frame, bool) {
	deadline := time.After(timeout)
	for s.seen.n < n {
		select {
		case s.seen = <-s.latest:
		case <-s.done:
			return s.seen.f, false
		case <-deadline:
			return s.seen.f, false
		}
	}
	return s.seen.f, true
}
