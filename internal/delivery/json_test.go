package delivery

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"

	"github.com/mcc-cmi/cmi/internal/wire"
)

// encodeJSON is the oracle: what the handlers sent before the append
// encoder, json.NewEncoder(w).Encode(v), i.e. json.Marshal plus newline.
func encodeJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

// checkNotificationJSON compares both encoder forms with encoding/json
// on ns: the list against Encode, each notification against Marshal.
// Where encoding/json fails the encoder must fail too, leaving dst as
// it was. A nil list is written as [], as the handler always sent it.
func checkNotificationJSON(t *testing.T, ns []Notification) {
	t.Helper()
	prefix := []byte("prefix")
	oracle := ns
	if oracle == nil {
		oracle = []Notification{}
	}
	want, werr := encodeJSON(oracle)
	got, gerr := AppendJSON(prefix, ns)
	switch {
	case werr != nil && gerr == nil:
		t.Fatalf("AppendJSON accepted what encoding/json rejects (%v):\n%s", werr, got)
	case werr == nil && gerr != nil:
		t.Fatalf("AppendJSON failed (%v) where encoding/json wrote\n%s", gerr, want)
	case gerr != nil:
		if string(got) != "prefix" {
			t.Fatalf("failed AppendJSON changed dst to %q", got)
		}
	default:
		if got = append(got, '\n'); !bytes.Equal(got[len(prefix):], want) {
			t.Fatalf("AppendJSON differs from encoding/json:\n got %s\nwant %s", got[len(prefix):], want)
		}
	}
	for i := range ns {
		want, werr := json.Marshal(&ns[i])
		got, gerr := AppendNotificationJSON(prefix, &ns[i])
		if (werr != nil) != (gerr != nil) {
			t.Fatalf("notification %d: encoding/json error %v, AppendNotificationJSON error %v", i, werr, gerr)
		}
		if gerr != nil {
			if string(got) != "prefix" {
				t.Fatalf("failed AppendNotificationJSON changed dst to %q", got)
			}
			continue
		}
		if !bytes.Equal(got[len(prefix):], want) {
			t.Fatalf("AppendNotificationJSON differs from encoding/json:\n got %s\nwant %s", got[len(prefix):], want)
		}
	}
}

// legacyParam is a param value of a type SanitizeParams never emits:
// the binary codec stores it as embedded JSON (pvJSON) and decodes it
// back as a map[string]any.
type legacyParam struct {
	Name  string   `json:"name"`
	Score float64  `json:"score"`
	Tags  []string `json:"tags"`
}

// TestNotificationJSONMatchesEncodingJSON pins AppendJSON and
// AppendNotificationJSON to encoding/json byte for byte over every
// field, every param kind and every escaping class; because
// encoding/json emits every exported field, a field added to
// Notification fails here until the append encoder learns it.
func TestNotificationJSONMatchesEncodingJSON(t *testing.T) {
	t0 := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	hostile := "<a href=\"x\">&amp;</a> \\ \xe2\x80\xa8\xe2\x80\xa9 bad \xff\xc3( ctl \x00\x01\b\t\n\f\r\x1f\x7f"

	// A pvJSON param as it comes back from a journal: decoded JSON.
	var legacy Notification
	{
		enc := AppendNotificationBinary(nil, &Notification{ID: 9, Time: t0,
			Params: map[string]any{"legacy": legacyParam{"<b>", 0.5, nil}}})
		var err error
		if legacy, err = DecodeNotificationBinary(wire.NewDec(enc)); err != nil {
			t.Fatal(err)
		}
		if _, ok := legacy.Params["legacy"].(map[string]any); !ok {
			t.Fatalf("legacy param decoded as %T, want map[string]any", legacy.Params["legacy"])
		}
	}

	cases := map[string][]Notification{
		"nil list":   nil,
		"empty list": {},
		"zero value": {{}},
		"nil and empty params": {
			{ID: 1, Time: t0, Schema: "S", Description: "d"},
			{ID: 2, Time: t0, Schema: "S", Description: "d", Params: map[string]any{}},
		},
		"param kinds": {{ID: 3, Time: t0, Schema: "Kinds", Params: map[string]any{
			"nil": nil, "str": "v", "true": true, "false": false,
			"i64": int64(math.MinInt64), "int": math.MaxInt, "zero": int64(0),
			"strs": []string{"a", "<b>", ""}, "noStrs": []string(nil), "emptyStrs": []string{},
			"f": 1.5, "fBig": 1e21, "fSmall": 1e-7, "fNeg": math.Copysign(0, -1), "fInt": 3.0,
			"i32": int32(7), "u8": uint8(200), "bytes": []byte("<raw>"),
			"nested": map[string]any{"z": []any{1.0, "x"}, "a": nil},
		}}},
		"legacy pvJSON": {legacy},
		"escaping": {{ID: 4, Time: t0, Schema: hostile, Description: hostile,
			Params: map[string]any{hostile: hostile, "list": []string{hostile}}}},
		"key order": {{ID: 5, Time: t0, Params: map[string]any{
			"b": 1, "a": 2, "B": 3, "\xff": 4, "\xfe": 5, "aa": 6, "": 7, "\xe4\xb8\x96": 8}}},
		"priority and acked": {
			{ID: 6, Time: t0, Priority: 3, Acked: true},
			{ID: 7, Time: t0, Priority: -2},
			{ID: -8, Time: t0, Acked: true},
		},
		"times": {
			{ID: 10, Time: time.Time{}},
			{ID: 11, Time: time.Date(2026, 1, 2, 3, 4, 5, 123456789, time.UTC)},
			{ID: 12, Time: time.Date(2026, 1, 2, 3, 4, 5, 120000000, time.FixedZone("", 5*3600+30*60))},
			{ID: 13, Time: time.Date(1999, 12, 31, 23, 59, 59, 1, time.FixedZone("X", -7*3600))},
			{ID: 14, Time: time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.FixedZone("", 23*3600+59*60))},
			{ID: 15, Time: time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC)},
			{ID: 16, Time: time.Unix(1_700_000_000, 42).In(time.FixedZone("", 90))},
			{ID: 17, Time: time.Now()}, // monotonic reading: not written
		},
		"restart queue": restartQueue(2300),
	}
	for name, ns := range cases {
		t.Run(name, func(t *testing.T) { checkNotificationJSON(t, ns) })
	}

	// Values encoding/json rejects: both sides must fail.
	bad := map[string]Notification{
		"NaN param":       {Time: t0, Params: map[string]any{"f": math.NaN()}},
		"Inf param":       {Time: t0, Params: map[string]any{"f": math.Inf(1)}},
		"channel param":   {Time: t0, Params: map[string]any{"c": make(chan int)}},
		"year 10000":      {Time: time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)},
		"year -1":         {Time: time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC)},
		"offset 24h":      {Time: time.Date(2026, 1, 1, 0, 0, 0, 0, time.FixedZone("", 24*3600))},
		"offset -100h":    {Time: time.Date(2026, 1, 1, 0, 0, 0, 0, time.FixedZone("", -100*3600))},
		"nested NaN":      {Time: t0, Params: map[string]any{"m": map[string]any{"f": math.NaN()}}},
		"bad after good":  {Time: t0, Params: map[string]any{"a": "ok", "z": math.NaN()}},
		"bad time params": {Time: time.Date(12345, 1, 1, 0, 0, 0, 0, time.UTC), Params: map[string]any{"a": 1}},
	}
	for name, n := range bad {
		t.Run(name, func(t *testing.T) {
			if _, err := json.Marshal(&n); err == nil {
				t.Fatal("encoding/json accepts the case; it belongs in the matching table")
			}
			checkNotificationJSON(t, []Notification{{ID: 1, Time: t0}, n})
		})
	}
}

// restartQueue is the pending list a participant of the restart image
// reads after a crash: n wide notifications.
func restartQueue(n int) []Notification {
	ns := make([]Notification, n)
	for i := range ns {
		ns[i] = wideNotification(int64(i + 1))
	}
	return ns
}

// FuzzNotificationJSON drives both encoder forms against encoding/json
// over arbitrary strings, ids, times, zones and param values.
func FuzzNotificationJSON(f *testing.F) {
	f.Add(int64(1), int64(1_700_000_000), int64(0), 0, "WideMoved", "wide moved", "fieldName", "Wide", int64(7), 1.5, 0, false)
	f.Add(int64(-3), int64(-62135596800), int64(999999999), -3600, "<s>", "\xe2\x80\xa8", "\xff", "a&b", int64(math.MaxInt64), 1e21, 2, true)
	f.Add(int64(0), int64(253402300800), int64(1), 86400, "", "", "", "", int64(0), math.NaN(), 0, false)
	f.Fuzz(func(t *testing.T, id, sec, nsec int64, offset int, schema, desc, key, val string, i int64, fl float64, prio int, acked bool) {
		n := Notification{
			ID:          id,
			Time:        time.Unix(sec, nsec).In(time.FixedZone(schema, offset)),
			Schema:      schema,
			Description: desc,
			Priority:    prio,
			Acked:       acked,
		}
		if key != "" || val != "" {
			n.Params = map[string]any{
				key: val, key + "i": i, key + "f": fl, key + "b": acked,
				key + "s": []string{val, key}, key + "n": nil, key + "ns": []string(nil),
				key + "m": map[string]any{val: fl},
			}
		}
		checkNotificationJSON(t, []Notification{n, n})
	})
}

// BenchmarkNotificationsJSON encodes the pending list of a restart-image
// queue, 2,300 wide notifications, as GET /api/notifications/{p} sends
// it: encoding/json (the oracle and the old path) against AppendJSON
// into a buffer sized as the handler sizes it, 448 bytes a notification.
func BenchmarkNotificationsJSON(b *testing.B) {
	ns := restartQueue(2300)
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			body, err := encodeJSON(ns)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(body)))
		}
	})
	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			body, err := AppendJSON(wire.GetBuf(2+len(ns)*448), ns)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(body) + 1))
			wire.PutBuf(append(body, '\n'))
		}
	})
}
