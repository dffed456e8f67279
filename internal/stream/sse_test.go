package stream

import (
	"encoding/json"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/mcc-cmi/cmi/internal/delivery"
)

// marshalFrames is the oracle: the SSE frames as the writer built them
// with json.Marshal, one notification event per element.
func marshalFrames(t testing.TB, ns []delivery.Notification) string {
	t.Helper()
	var sb strings.Builder
	for i := range ns {
		body, err := json.Marshal(&ns[i])
		if err != nil {
			t.Fatal(err)
		}
		sb.WriteString("id: " + strconv.FormatInt(ns[i].ID, 10) + "\nevent: notification\ndata: ")
		sb.Write(body)
		sb.WriteString("\n\n")
	}
	return sb.String()
}

// wideNotification has the shape of the pipeline benchmark's payload:
// 14 params of the kinds SanitizeParams emits.
func wideNotification(id int64) delivery.Notification {
	return delivery.Notification{
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

// TestFrameJSONMatchesEncodingJSON pins the hello and notification
// frames to what json.Marshal produced, byte for byte.
func TestFrameJSONMatchesEncodingJSON(t *testing.T) {
	hostile := "<a>&\"\\ \xe2\x80\xa8 \xff ctl\x00\n"
	var sb strings.Builder
	fw := &FrameWriter{w: &sb}
	if err := fw.WriteHello(hostile, -12, 0); err != nil {
		t.Fatal(err)
	}
	helloWant, err := json.Marshal(struct {
		Participant string `json:"participant"`
		Cursor      int64  `json:"cursor"`
	}{hostile, -12})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sb.String(), "event: hello\ndata: "+string(helloWant)+"\n\n"; got != want {
		t.Fatalf("hello frame:\n got %q\nwant %q", got, want)
	}

	ns := []delivery.Notification{
		wideNotification(1),
		{ID: 2, Time: time.Date(2026, 8, 6, 12, 0, 0, 123456789, time.FixedZone("", -5*3600)),
			Schema: hostile, Description: hostile, Priority: 4, Acked: true,
			Params: map[string]any{hostile: []string{hostile}, "f": 1e21, "g": 1e-7, "none": []string(nil)}},
		{ID: 3},
	}
	sb.Reset()
	if err := fw.WriteEvents(ns); err != nil {
		t.Fatal(err)
	}
	if got, want := sb.String(), marshalFrames(t, ns); got != want {
		t.Fatalf("notification frames:\n got %q\nwant %q", got, want)
	}

	// A notification encoding/json rejects fails the batch and writes
	// nothing.
	sb.Reset()
	bad := []delivery.Notification{wideNotification(4), {ID: 5, Params: map[string]any{"f": math.NaN()}}}
	if err := fw.WriteEvents(bad); err == nil || sb.Len() != 0 {
		t.Fatalf("WriteEvents with a NaN param: err %v, wrote %d bytes", err, sb.Len())
	}
}

// BenchmarkFrameWriteEvents writes one wide notification as an SSE
// frame — the per-notification cost of a live session's push.
func BenchmarkFrameWriteEvents(b *testing.B) {
	ns := []delivery.Notification{wideNotification(1)}
	fw := &FrameWriter{w: io.Discard}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := fw.WriteEvents(ns); err != nil {
			b.Fatal(err)
		}
	}
}
