package federation

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"

	"github.com/mcc-cmi/cmi/internal/core"
	"github.com/mcc-cmi/cmi/internal/enact"
	"github.com/mcc-cmi/cmi/internal/wire"
)

// encodeLikeWriteJSON is what the handlers sent before the append
// encoder: json.NewEncoder(w).Encode(v), i.e. json.Marshal plus newline.
func encodeLikeWriteJSON(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestListJSONMatchesEncodingJSON pins the append encoder to
// encoding/json byte for byte: every escaping class the standard
// encoder treats specially, in every field of both row types, plus a
// seeded sweep of random byte strings. Because json.Marshal emits every
// struct field, a field added to WorkItem or MonitorRow makes this fail
// until the append encoder learns it.
func TestListJSONMatchesEncodingJSON(t *testing.T) {
	hostile := []string{
		"",
		"plain-ascii_09 AZ az ~",
		`quo"te and back\\slash`,
		"ctl \x00\x01\x07\b\t\n\v\f\r\x1b\x1f\x7f",
		"html <script>&amp;</script>",
		"line\u2028sep para\u2029sep",
		"bad utf8 \xff\xfe \xc3( trunc \xe2\x80",
		"surrogate \xed\xa0\x80 overlong \xc0\xaf",
		"ok utf8 h\u00e9llo \u4e16\u754c \U0001F600 \ufffd",
	}
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 300; i++ {
		b := make([]byte, rng.Intn(24))
		for j := range b {
			switch rng.Intn(4) {
			case 0:
				b[j] = byte(rng.Intn(0x20)) // control
			case 1:
				b[j] = byte(0x80 + rng.Intn(0x80)) // lone continuation / lead bytes
			default:
				b[j] = byte(0x20 + rng.Intn(0x60))
			}
		}
		hostile = append(hostile, string(b))
	}

	for _, s := range hostile {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := wire.AppendJSONString(nil, s); !bytes.Equal(got, want) {
			t.Errorf("wire.AppendJSONString(%q) = %s, encoding/json = %s", s, got, want)
		}
	}

	// Whole bodies: each hostile string in each field position.
	var items []enact.WorkItem
	var rows []enact.MonitorRow
	for i, s := range hostile {
		f := func(k int) string {
			if i%6 == k {
				return s
			}
			return "f"
		}
		items = append(items, enact.WorkItem{
			ActivityID: f(0), Var: f(1), SchemaName: f(2),
			ProcessID: f(3), ProcessSchema: f(4), State: core.State(f(5)),
		})
		rows = append(rows, enact.MonitorRow{
			ProcessID: f(0), ProcessSchema: f(1), ActivityID: f(2),
			Var: f(3), State: core.State(f(4)), Assignee: f(5),
		})
	}
	for n := 0; n <= len(items); n += 1 + n/2 {
		if got, want := appendWorkItems(nil, items[:n]), encodeLikeWriteJSON(t, items[:n]); !bytes.Equal(got, want) {
			t.Errorf("appendWorkItems(%d items) differs from encoding/json:\n got %s\nwant %s", n, got, want)
		}
		if got, want := appendMonitorRows(nil, rows[:n]), encodeLikeWriteJSON(t, rows[:n]); !bytes.Equal(got, want) {
			t.Errorf("appendMonitorRows(%d rows) differs from encoding/json:\n got %s\nwant %s", n, got, want)
		}
	}
	// nil encodes as the handlers always sent it: [], never null.
	if got := string(appendWorkItems(nil, nil)); got != "[]\n" {
		t.Errorf("nil work items encode as %q", got)
	}
	if got := string(appendMonitorRows(nil, nil)); got != "[]\n" {
		t.Errorf("nil monitor rows encode as %q", got)
	}
}

// FuzzListJSON drives the two list encoders and the shared string
// escaper against encoding/json over arbitrary field values.
func FuzzListJSON(f *testing.F) {
	f.Add("a-1", "Organize", "Task", "p-1", "TaskForce", "Running")
	f.Fuzz(func(t *testing.T, a, b, c, d, e, g string) {
		if got, want := wire.AppendJSONString(nil, a), mustMarshal(t, a); !bytes.Equal(got, want) {
			t.Fatalf("wire.AppendJSONString(%q) = %s, encoding/json = %s", a, got, want)
		}
		items := []enact.WorkItem{
			{ActivityID: a, Var: b, SchemaName: c, ProcessID: d, ProcessSchema: e, State: core.State(g)},
			{ActivityID: g, Var: e, SchemaName: d, ProcessID: c, ProcessSchema: b, State: core.State(a)},
		}
		if got, want := appendWorkItems(nil, items), encodeLikeWriteJSON(t, items); !bytes.Equal(got, want) {
			t.Fatalf("appendWorkItems differs from encoding/json:\n got %s\nwant %s", got, want)
		}
		rows := []enact.MonitorRow{
			{ProcessID: a, ProcessSchema: b, ActivityID: c, Var: d, State: core.State(e), Assignee: g},
			{ProcessID: g, ProcessSchema: e, ActivityID: d, Var: c, State: core.State(b), Assignee: a},
		}
		if got, want := appendMonitorRows(nil, rows), encodeLikeWriteJSON(t, rows); !bytes.Equal(got, want) {
			t.Fatalf("appendMonitorRows differs from encoding/json:\n got %s\nwant %s", got, want)
		}
	})
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
