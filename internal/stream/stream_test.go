package stream

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/mcc-cmi/cmi/internal/delivery"
	"github.com/mcc-cmi/cmi/internal/obs"
)

// newHub builds a store+hub pair wired the way system.New wires them:
// the hub broadcast is the store's commit hook.
func newHub(t *testing.T, opts Options) (*delivery.Store, *Hub) {
	t.Helper()
	store, err := delivery.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	h := NewHub(store, opts)
	h.Instrument(obs.NewRegistry())
	store.OnCommit(h.Broadcast)
	t.Cleanup(h.Close)
	return store, h
}

func enqueue(t *testing.T, store *delivery.Store, participant, desc string) delivery.Notification {
	t.Helper()
	n, err := store.Enqueue(participant, delivery.Notification{
		Time: time.Now(), Schema: "S", Description: desc,
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// collect drains n notifications from the session with a deadline.
func collect(t *testing.T, s *Session, n int) []delivery.Notification {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var out []delivery.Notification
	for len(out) < n {
		batch, err := s.Next(ctx)
		if err != nil {
			t.Fatalf("Next after %d of %d: %v", len(out), n, err)
		}
		out = append(out, batch...)
	}
	if len(out) > n {
		t.Fatalf("got %d notifications, want %d", len(out), n)
	}
	return out
}

func assertInOrder(t *testing.T, ns []delivery.Notification, wantDescs []string) {
	t.Helper()
	if len(ns) != len(wantDescs) {
		t.Fatalf("got %d notifications, want %d", len(ns), len(wantDescs))
	}
	last := int64(0)
	for i, n := range ns {
		if n.ID <= last {
			t.Fatalf("ids not strictly ascending: %d after %d", n.ID, last)
		}
		last = n.ID
		if n.Description != wantDescs[i] {
			t.Fatalf("notification %d: got %q, want %q", i, n.Description, wantDescs[i])
		}
	}
}

func TestSessionReplayThenLive(t *testing.T) {
	store, h := newHub(t, Options{})
	// Backlog before the session exists.
	enqueue(t, store, "ada", "a")
	enqueue(t, store, "ada", "b")
	s, err := h.Subscribe("ada", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	got := collect(t, s, 2)
	// Live events after the session caught up.
	enqueue(t, store, "ada", "c")
	enqueue(t, store, "ada", "d")
	got = append(got, collect(t, s, 2)...)
	assertInOrder(t, got, []string{"a", "b", "c", "d"})
}

func TestSessionResumeFromCursor(t *testing.T) {
	store, h := newHub(t, Options{})
	var ids []int64
	for i := 0; i < 5; i++ {
		ids = append(ids, enqueue(t, store, "ada", fmt.Sprintf("n%d", i)).ID)
	}
	// Resume after the 3rd: only n3 and n4 may arrive.
	s, err := h.Subscribe("ada", ids[2])
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	assertInOrder(t, collect(t, s, 2), []string{"n3", "n4"})
	if got := s.Cursor(); got != ids[4] {
		t.Fatalf("cursor = %d, want %d", got, ids[4])
	}
}

func TestSessionSkipsAckedOnReplay(t *testing.T) {
	store, h := newHub(t, Options{})
	n0 := enqueue(t, store, "ada", "seen")
	enqueue(t, store, "ada", "pending")
	if err := store.Ack("ada", n0.ID); err != nil {
		t.Fatal(err)
	}
	s, err := h.Subscribe("ada", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	assertInOrder(t, collect(t, s, 1), []string{"pending"})
}

// TestSlowSessionDegradesToReplay drives more live traffic than the
// session buffer holds while the client is not reading: the session
// must bound its memory by dropping to cursor replay, then still
// deliver everything exactly once and in order.
func TestSlowSessionDegradesToReplay(t *testing.T) {
	store, h := newHub(t, Options{SessionBuffer: 4})
	s, err := h.Subscribe("ada", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Drain the empty initial replay so the session is live; after that
	// the client stops reading and the buffer (4) must overflow.
	drainCtx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	s.Next(drainCtx)
	cancel()
	const total = 64
	want := make([]string, total)
	for i := range want {
		want[i] = fmt.Sprintf("n%d", i)
		enqueue(t, store, "ada", want[i])
	}
	if got := h.dropped.Value(); got == 0 {
		t.Fatal("expected at least one dropped-to-replay degradation")
	}
	assertInOrder(t, collect(t, s, total), want)
}

// TestConcurrentBroadcastExactlyOnce races live enqueues against a
// consuming session from the first event on, crossing the replay→live
// transition repeatedly; the session must deliver every notification
// exactly once, in order.
func TestConcurrentBroadcastExactlyOnce(t *testing.T) {
	store, h := newHub(t, Options{SessionBuffer: 8})
	s, err := h.Subscribe("ada", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const total = 500
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < total; i++ {
			enqueue(t, store, "ada", fmt.Sprintf("n%d", i))
		}
	}()
	want := make([]string, total)
	for i := range want {
		want[i] = fmt.Sprintf("n%d", i)
	}
	got := collect(t, s, total)
	wg.Wait()
	assertInOrder(t, got, want)
}

func TestSessionCloseUnblocksNext(t *testing.T) {
	_, h := newHub(t, Options{})
	s, err := h.Subscribe("ada", 0)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := s.Next(context.Background())
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	s.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("Next returned %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Next did not unblock on Close")
	}
	if n := h.SessionCount(); n != 0 {
		t.Fatalf("SessionCount = %d after Close, want 0", n)
	}
}

func TestHubCloseEndsSessionsAndRefusesNew(t *testing.T) {
	_, h := newHub(t, Options{})
	s, err := h.Subscribe("ada", 0)
	if err != nil {
		t.Fatal(err)
	}
	h.Close()
	if _, err := s.Next(context.Background()); !errors.Is(err, ErrClosed) {
		t.Fatalf("Next after hub Close = %v, want ErrClosed", err)
	}
	if _, err := h.Subscribe("bob", 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("Subscribe after Close = %v, want ErrClosed", err)
	}
}

func TestFrameWriterSSEFormat(t *testing.T) {
	_, h := newHub(t, Options{})
	var sb strings.Builder
	fw := h.NewFrameWriter(&sb)
	if err := fw.WriteHello("ada", 7, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := fw.WriteEvents([]delivery.Notification{
		{ID: 8, Schema: "S", Description: "x"},
		{ID: 9, Schema: "S", Description: "y"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := fw.WritePing(); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"retry: 2000\n",
		"event: hello\ndata: {\"participant\":\"ada\",\"cursor\":7}\n\n",
		"id: 8\nevent: notification\ndata: ",
		"id: 9\nevent: notification\ndata: ",
		": ping\n\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("SSE output missing %q:\n%s", want, out)
		}
	}
	// Every event must be terminated by a blank line.
	if !strings.HasSuffix(out, "\n\n") {
		t.Fatalf("SSE output not frame-terminated:\n%s", out)
	}
}

// TestBroadcastBatchesOneWritePerCommitGroup asserts the batched
// fan-out contract: a commit group broadcast as one batch reaches the
// session as one batch, which the frame writer turns into one Write.
func TestBroadcastBatchesOneWritePerCommitGroup(t *testing.T) {
	_, h := newHub(t, Options{})
	s, err := h.Subscribe("ada", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Drain the (empty) replay so the session is live.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	s.Next(ctx)
	cancel()
	h.Broadcast("ada", []delivery.Notification{
		{ID: 1, Schema: "S", Description: "a"},
		{ID: 2, Schema: "S", Description: "b"},
		{ID: 3, Schema: "S", Description: "c"},
	})
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	batch, err := s.Next(ctx2)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 3 {
		t.Fatalf("one commit group delivered as %d batches' worth (%d notifications), want one batch of 3", 1, len(batch))
	}
	countingW := &writeCounter{}
	if err := h.NewFrameWriter(countingW).WriteEvents(batch); err != nil {
		t.Fatal(err)
	}
	if countingW.writes != 1 {
		t.Fatalf("frame writer used %d writes for one batch, want 1", countingW.writes)
	}
}

type writeCounter struct{ writes int }

func (w *writeCounter) Write(p []byte) (int, error) { w.writes++; return len(p), nil }
