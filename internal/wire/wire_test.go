package wire

import (
	"bytes"
	"testing"
	"time"

	"github.com/mcc-cmi/cmi/internal/obs"
)

func TestFrameRoundTrip(t *testing.T) {
	payload := []byte("hello, journal")
	frame := AppendFrame(nil, payload)
	if frame[0] != Format1 {
		t.Fatalf("format byte = %#x, want %#x", frame[0], Format1)
	}
	sc := NewScanner(frame)
	rec, isFrame, ok := sc.Next()
	if !ok || !isFrame {
		t.Fatalf("Next = (%q, %v, %v), want frame", rec, isFrame, ok)
	}
	if !bytes.Equal(rec, payload) {
		t.Fatalf("payload = %q, want %q", rec, payload)
	}
	if _, _, ok := sc.Next(); ok || sc.Torn() {
		t.Fatalf("expected clean end of input, torn=%v", sc.Torn())
	}
}

func TestScannerMixedFormats(t *testing.T) {
	var buf []byte
	buf = append(buf, `{"kind":"legacy","n":1}`...)
	buf = append(buf, '\n')
	buf = AppendFrame(buf, []byte("binary-1"))
	buf = append(buf, '\n') // commit groups separate records with newlines
	buf = append(buf, `{"kind":"legacy","n":2}`...)
	buf = append(buf, '\n')
	buf = AppendFrame(buf, []byte("binary-2"))

	sc := NewScanner(buf)
	var recs []string
	var frames []bool
	for {
		rec, isFrame, ok := sc.Next()
		if !ok {
			break
		}
		recs = append(recs, string(rec))
		frames = append(frames, isFrame)
		// Frame is the whole frame around a binary payload, nil after a
		// JSON line.
		if want := AppendFrame(nil, rec); isFrame != bytes.Equal(sc.Frame(), want) || !isFrame && sc.Frame() != nil {
			t.Errorf("record %q: Frame = %q", rec, sc.Frame())
		}
	}
	want := []string{`{"kind":"legacy","n":1}`, "binary-1", `{"kind":"legacy","n":2}`, "binary-2"}
	if len(recs) != len(want) {
		t.Fatalf("got %d records %q, want %d", len(recs), recs, len(want))
	}
	for i := range want {
		if recs[i] != want[i] {
			t.Errorf("record %d = %q, want %q", i, recs[i], want[i])
		}
		if frames[i] != (i%2 == 1) {
			t.Errorf("record %d isFrame = %v", i, frames[i])
		}
	}
	if sc.Torn() {
		t.Fatal("clean mixed file reported torn")
	}
}

func TestScannerTornFrame(t *testing.T) {
	full := AppendFrame(nil, []byte("first"))
	// Truncated second frame: header promises more bytes than exist.
	torn := AppendFrame(nil, []byte("second-record-payload"))
	data := append(append([]byte{}, full...), torn[:len(torn)-5]...)
	sc := NewScanner(data)
	if _, _, ok := sc.Next(); !ok {
		t.Fatal("first frame should scan")
	}
	if _, _, ok := sc.Next(); ok {
		t.Fatal("truncated frame should not scan")
	}
	if !sc.Torn() {
		t.Fatal("truncated frame should report torn")
	}
}

func TestScannerCorruptCRC(t *testing.T) {
	frame := AppendFrame(nil, []byte("payload"))
	frame[len(frame)-1] ^= 0xFF
	sc := NewScanner(frame)
	if _, _, ok := sc.Next(); ok {
		t.Fatal("corrupt frame should not scan")
	}
	if !sc.Torn() {
		t.Fatal("corrupt frame should report torn")
	}
}

func TestResealFrame(t *testing.T) {
	payload := make([]byte, 16)
	copy(payload, "id:AAAAAAAA rest")
	frame := AppendFrame(nil, payload)
	p := FramePayload(frame)
	if p == nil {
		t.Fatal("FramePayload returned nil")
	}
	copy(p[3:], "BBBBBBBB")
	// Before resealing the checksum no longer matches.
	if _, _, ok := NewScanner(frame).Next(); ok {
		t.Fatal("patched frame scanned before reseal")
	}
	ResealFrame(frame)
	rec, _, ok := NewScanner(frame).Next()
	if !ok {
		t.Fatal("resealed frame should scan")
	}
	if !bytes.Contains(rec, []byte("BBBBBBBB")) {
		t.Fatalf("resealed payload = %q", rec)
	}
}

func TestPrimitivesRoundTrip(t *testing.T) {
	now := time.Unix(1722000000, 123456789)
	var b []byte
	b = AppendUvarint(b, 300)
	b = AppendVarint(b, -42)
	b = AppendString(b, "participant")
	b = AppendBytes(b, []byte{1, 2, 3})
	b = AppendBool(b, true)
	b = AppendTime(b, now)
	b = AppendTime(b, time.Time{})
	b = AppendUint64LE(b, 987654321)

	d := NewDec(b)
	if v := d.Uvarint(); v != 300 {
		t.Errorf("Uvarint = %d", v)
	}
	if v := d.Varint(); v != -42 {
		t.Errorf("Varint = %d", v)
	}
	if v := d.String(); v != "participant" {
		t.Errorf("String = %q", v)
	}
	if v := d.Bytes(); !bytes.Equal(v, []byte{1, 2, 3}) {
		t.Errorf("Bytes = %v", v)
	}
	if !d.Bool() {
		t.Error("Bool = false")
	}
	if v := d.Time(); !v.Equal(now) {
		t.Errorf("Time = %v, want %v", v, now)
	}
	if v := d.Time(); !v.IsZero() {
		t.Errorf("zero Time = %v", v)
	}
	if v := d.Uint64LE(); v != 987654321 {
		t.Errorf("Uint64LE = %d", v)
	}
	if err := d.Err(); err != nil {
		t.Fatalf("Err = %v", err)
	}
	if d.Len() != 0 {
		t.Fatalf("%d bytes left over", d.Len())
	}
}

func TestDecTruncatedIsSticky(t *testing.T) {
	d := NewDec(AppendString(nil, "abc")[:2])
	_ = d.String()
	if d.Err() == nil {
		t.Fatal("truncated read should error")
	}
	// Subsequent reads stay zero-valued, no panic.
	if v := d.Uvarint(); v != 0 {
		t.Fatalf("post-error Uvarint = %d", v)
	}
}

func TestBufPool(t *testing.T) {
	g0, m0 := PoolStats()
	b := GetBuf(100)
	if cap(b) < 100 || len(b) != 0 {
		t.Fatalf("GetBuf(100): len=%d cap=%d", len(b), cap(b))
	}
	PutBuf(b)
	b2 := GetBuf(100)
	PutBuf(b2)
	big := GetBuf(4 << 20) // beyond the largest class: plain allocation
	if cap(big) < 4<<20 {
		t.Fatalf("oversized GetBuf cap=%d", cap(big))
	}
	PutBuf(big)
	g1, m1 := PoolStats()
	if g1-g0 != 3 {
		t.Fatalf("gets delta = %d, want 3", g1-g0)
	}
	if m1 <= m0 {
		t.Fatal("oversized request should count a miss")
	}
}

// TestPutBufKeepsClasses: a 1 MiB buffer put back is never served to a
// request of 64 KiB or less, and a buffer beyond the largest class is
// never served again at all.
func TestPutBufKeepsClasses(t *testing.T) {
	for round := 0; round < 20; round++ {
		PutBuf(make([]byte, 0, 1<<20))
		PutBuf(make([]byte, 0, 4<<20))
		for _, n := range []int{64 << 10, 16 << 10, 4 << 10, 1 << 10, 256, 1} {
			b := GetBuf(n)
			if cap(b) >= 1<<20 {
				t.Fatalf("round %d: GetBuf(%d) returned a put-back 1 MiB buffer (cap %d)", round, n, cap(b))
			}
			PutBuf(b)
		}
		if b := GetBuf(1 << 20); cap(b) > 1<<20 {
			t.Fatalf("round %d: GetBuf(1 MiB) returned a put-back oversized buffer (cap %d)", round, cap(b))
		}
	}
}

func TestInstrument(t *testing.T) {
	reg := obs.NewRegistry()
	h := Instrument(reg)
	if h == nil {
		t.Fatal("Instrument returned nil histogram")
	}
	h.Observe(5 * time.Microsecond)
	var sb bytes.Buffer
	if _, err := reg.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, name := range []string{"cmi_wire_encode_seconds", "cmi_wire_pool_hits_total", "cmi_wire_pool_misses_total"} {
		if !bytes.Contains(sb.Bytes(), []byte(name)) {
			t.Errorf("exposition missing %s:\n%s", name, out)
		}
	}
	if Instrument(nil) != nil {
		t.Fatal("nil registry should return nil histogram")
	}
}
