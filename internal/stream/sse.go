// SSE wire encoding for streaming sessions — the server side of the
// protocol specified in docs/STREAMING.md. Kept transport-only: the
// ordering/resume logic lives in Session, so a future WebSocket or
// binary transport reuses it unchanged.

package stream

import (
	"fmt"
	"io"
	"strconv"
	"time"

	"github.com/mcc-cmi/cmi/internal/delivery"
	"github.com/mcc-cmi/cmi/internal/wire"
)

// A FrameWriter encodes notification batches as Server-Sent Events and
// writes each batch to the transport with a single Write call — one
// journal commit group, one syscall per session. It is not safe for
// concurrent use; each session's transport goroutine owns one.
type FrameWriter struct {
	w   io.Writer
	buf []byte
	hub *Hub // metric source; nil-safe
}

// NewFrameWriter returns a frame writer for one session's transport,
// observing frame-write latency and event counts on the hub's metrics.
func (h *Hub) NewFrameWriter(w io.Writer) *FrameWriter {
	return &FrameWriter{w: w, hub: h, buf: make([]byte, 0, 1024)}
}

// WriteHello writes the session-opening control event: the participant,
// the cursor the session resumed from, and the client retry hint.
func (fw *FrameWriter) WriteHello(participant string, cursor int64, retry time.Duration) error {
	fw.buf = fw.buf[:0]
	if retry > 0 {
		fw.buf = append(fw.buf, "retry: "...)
		fw.buf = strconv.AppendInt(fw.buf, retry.Milliseconds(), 10)
		fw.buf = append(fw.buf, '\n')
	}
	fw.buf = append(fw.buf, "event: hello\ndata: "...)
	fw.buf = wire.AppendJSONString(append(fw.buf, `{"participant":`...), participant)
	fw.buf = strconv.AppendInt(append(fw.buf, `,"cursor":`...), cursor, 10)
	fw.buf = append(fw.buf, '}', '\n', '\n')
	return fw.flush()
}

// WriteEvents writes one batch of notifications as consecutive
// `notification` events — each carrying its journal id in the SSE `id`
// field, so a standard EventSource client resumes via Last-Event-ID —
// flushed to the transport in a single Write.
func (fw *FrameWriter) WriteEvents(ns []delivery.Notification) error {
	if len(ns) == 0 {
		return nil
	}
	fw.buf = fw.buf[:0]
	for i := range ns {
		fw.buf = append(fw.buf, "id: "...)
		fw.buf = strconv.AppendInt(fw.buf, ns[i].ID, 10)
		fw.buf = append(fw.buf, "\nevent: notification\ndata: "...)
		var err error
		if fw.buf, err = delivery.AppendNotificationJSON(fw.buf, &ns[i]); err != nil {
			return fmt.Errorf("stream: encode notification %d: %w", ns[i].ID, err)
		}
		fw.buf = append(fw.buf, '\n', '\n')
	}
	if err := fw.flush(); err != nil {
		return err
	}
	if fw.hub != nil {
		fw.hub.events.Add(uint64(len(ns)))
	}
	return nil
}

// WritePing writes a heartbeat comment line, keeping intermediaries and
// dead-connection detection alive during quiet periods.
func (fw *FrameWriter) WritePing() error {
	fw.buf = append(fw.buf[:0], ": ping\n\n"...)
	return fw.flush()
}

// flush writes the assembled frame in one call, observing write latency.
func (fw *FrameWriter) flush() error {
	var t0 time.Time
	observe := fw.hub != nil && fw.hub.frameWrite != nil
	if observe {
		t0 = time.Now()
	}
	_, err := fw.w.Write(fw.buf)
	if observe {
		fw.hub.frameWrite.Observe(time.Since(t0))
	}
	if err != nil {
		return fmt.Errorf("stream: frame write: %w", err)
	}
	return nil
}
