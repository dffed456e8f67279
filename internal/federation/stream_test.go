package federation

import (
	"bufio"
	"context"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/mcc-cmi/cmi/internal/delivery"
	"github.com/mcc-cmi/cmi/internal/stream"
	"github.com/mcc-cmi/cmi/internal/system"
	"github.com/mcc-cmi/cmi/internal/vclock"
)

// newStreamRig is newRig with a fast heartbeat, so ping behavior is
// testable without waiting out the production interval.
func newStreamRig(t *testing.T, ping time.Duration) *rig {
	t.Helper()
	clk := vclock.NewVirtual()
	sys, err := system.New(system.Config{Clock: clk, StateDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	fs := NewServer(sys)
	fs.SetStreamPing(ping)
	srv := httptest.NewServer(fs.Handler())
	t.Cleanup(func() {
		sys.Stream().Close() // end live handlers so srv.Close does not wait on them
		srv.Close()
		sys.Close()
	})
	return &rig{sys: sys, clk: clk, srv: srv}
}

func streamEnqueue(t *testing.T, r *rig, participant, desc string) delivery.Notification {
	t.Helper()
	n, err := r.sys.Store().Enqueue(participant, delivery.Notification{
		Time: time.Now(), Schema: "S", Description: desc,
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// recvN drains n notifications from a subscription with a deadline.
func recvN(t *testing.T, sub *stream.Subscription, n int) []delivery.Notification {
	t.Helper()
	var out []delivery.Notification
	timeout := time.After(10 * time.Second)
	for len(out) < n {
		select {
		case ev, ok := <-sub.Events():
			if !ok {
				t.Fatalf("subscription ended after %d of %d events (err: %v)", len(out), n, sub.Err())
			}
			out = append(out, ev)
		case <-timeout:
			t.Fatalf("timed out after %d of %d events", len(out), n)
		}
	}
	return out
}

// TestStreamEndpointDeliversBacklogAndLive subscribes through the real
// HTTP endpoint with the reference client: the journal backlog arrives
// first, then live events as they commit.
func TestStreamEndpointDeliversBacklogAndLive(t *testing.T) {
	r := newStreamRig(t, DefaultStreamPing)
	streamEnqueue(t, r, "ada", "a")
	streamEnqueue(t, r, "ada", "b")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sub := stream.Subscribe(ctx, r.srv.URL, "ada", stream.ClientOptions{})
	defer sub.Close()

	got := recvN(t, sub, 2)
	streamEnqueue(t, r, "ada", "c")
	got = append(got, recvN(t, sub, 1)...)

	want := []string{"a", "b", "c"}
	for i, n := range got {
		if n.Description != want[i] {
			t.Fatalf("event %d: got %q, want %q", i, n.Description, want[i])
		}
	}
}

// TestStreamEndpointResumesFromCursor closes a subscription, enqueues
// more, and resumes from the recorded cursor: only the new events
// arrive — exactly-once across the disconnect.
func TestStreamEndpointResumesFromCursor(t *testing.T) {
	r := newStreamRig(t, DefaultStreamPing)
	streamEnqueue(t, r, "ada", "before")

	ctx := context.Background()
	sub := stream.Subscribe(ctx, r.srv.URL, "ada", stream.ClientOptions{})
	recvN(t, sub, 1)
	cursor := sub.LastID()
	sub.Close()

	streamEnqueue(t, r, "ada", "while-away-1")
	streamEnqueue(t, r, "ada", "while-away-2")

	sub2 := stream.Subscribe(ctx, r.srv.URL, "ada", stream.ClientOptions{Cursor: cursor})
	defer sub2.Close()
	got := recvN(t, sub2, 2)
	if got[0].Description != "while-away-1" || got[1].Description != "while-away-2" {
		t.Fatalf("resume delivered %q, %q; want the two missed events", got[0].Description, got[1].Description)
	}
}

// TestStreamEndpointLastEventIDResume exercises the raw SSE surface the
// way a standard EventSource reconnect does: cursor via the
// Last-Event-ID header, and per-event id fields on the wire.
func TestStreamEndpointLastEventIDResume(t *testing.T) {
	r := newStreamRig(t, DefaultStreamPing)
	n1 := streamEnqueue(t, r, "ada", "old")
	n2 := streamEnqueue(t, r, "ada", "new")

	req, err := http.NewRequest(http.MethodGet, r.srv.URL+"/api/stream/notifications?participant=ada", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Last-Event-ID", strconv.FormatInt(n1.ID, 10))
	resp, err := r.srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	// Read frames until the first notification event; it must be the
	// one after the Last-Event-ID cursor, with its id on the wire.
	sc := bufio.NewScanner(resp.Body)
	var sawHello bool
	var id, event string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "id:"):
			id = strings.TrimSpace(line[3:])
		case strings.HasPrefix(line, "event:"):
			event = strings.TrimSpace(line[6:])
		case strings.HasPrefix(line, "data:"):
			if event == "hello" {
				sawHello = true
				if !strings.Contains(line, `"cursor":`+strconv.FormatInt(n1.ID, 10)) {
					t.Fatalf("hello does not echo Last-Event-ID cursor: %q", line)
				}
			}
			if event == "notification" {
				if !sawHello {
					t.Fatal("notification before hello")
				}
				if id != strconv.FormatInt(n2.ID, 10) {
					t.Fatalf("first frame id = %s, want %d", id, n2.ID)
				}
				if strings.Contains(line, `"old"`) {
					t.Fatalf("event at or below cursor leaked through: %q", line)
				}
				if !strings.Contains(line, `"new"`) {
					t.Fatalf("expected the post-cursor event, got %q", line)
				}
				return
			}
		}
	}
	t.Fatalf("stream ended without a notification event: %v", sc.Err())
}

// TestStreamEndpointHeartbeat verifies an idle session emits ping
// comments at the configured interval.
func TestStreamEndpointHeartbeat(t *testing.T) {
	r := newStreamRig(t, 30*time.Millisecond)
	resp, err := r.srv.Client().Get(r.srv.URL + "/api/stream/notifications?participant=ada")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	deadline := time.Now().Add(5 * time.Second)
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), ": ping") {
			return
		}
		if time.Now().After(deadline) {
			break
		}
	}
	t.Fatalf("no heartbeat on an idle stream: %v", sc.Err())
}

func TestStreamEndpointRejectsBadRequests(t *testing.T) {
	r := newStreamRig(t, DefaultStreamPing)
	for _, tc := range []struct {
		url  string
		want int
	}{
		{"/api/stream/notifications", http.StatusBadRequest},                           // no participant
		{"/api/stream/notifications?participant=ada&cursor=x", http.StatusBadRequest},  // bad cursor
		{"/api/stream/notifications?participant=ada&cursor=-1", http.StatusBadRequest}, // negative cursor
	} {
		resp, err := r.srv.Client().Get(r.srv.URL + tc.url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: HTTP %d, want %d", tc.url, resp.StatusCode, tc.want)
		}
	}
}

// TestStreamClientReconnectsThroughServerRestartScope: the reference
// client must absorb a dropped connection and resume with its cursor.
// The hub close drops every live session; the client reconnects and
// replays the gap.
func TestStreamClientReconnectsAfterSessionDrop(t *testing.T) {
	r := newStreamRig(t, DefaultStreamPing)
	streamEnqueue(t, r, "ada", "one")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sub := stream.Subscribe(ctx, r.srv.URL, "ada", stream.ClientOptions{
		ReconnectDelay: 20 * time.Millisecond,
	})
	defer sub.Close()
	recvN(t, sub, 1)

	// Drop every live session mid-stream, as a restart would; new
	// subscriptions must still be accepted afterwards, so this models a
	// transient server-side drop rather than full shutdown.
	for _, s := range dropLiveSessions(r) {
		s.Close()
	}
	streamEnqueue(t, r, "ada", "two")
	got := recvN(t, sub, 1)
	if got[0].Description != "two" {
		t.Fatalf("after drop, got %q, want %q", got[0].Description, "two")
	}
	if sub.Reconnects() == 0 {
		t.Fatal("client never reconnected")
	}
}

// dropLiveSessions waits for the hub to have at least one session and
// returns them all for closing.
func dropLiveSessions(r *rig) []*stream.Session {
	hub := r.sys.Stream()
	deadline := time.Now().Add(5 * time.Second)
	for hub.SessionCount() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	return hub.Sessions()
}
