// Package wire is the compact binary record framing shared by the
// CMI durable logs: the delivery group-commit journal, the enactment
// write-ahead log and the federation spool. JSON stays at the public
// HTTP edge; on disk each record is a length-prefixed, checksummed
// binary frame:
//
//	+--------+------------------+-----------+----------------+
//	| format | payload length   | CRC32-C   | payload        |
//	| 1 byte | uvarint          | 4 B, LE   | length bytes   |
//	+--------+------------------+-----------+----------------+
//
// The format byte (0x81 for version 1) has the high bit set, so a
// frame can never begin like a JSON-lines record ('{' is 0x7B): a
// Scanner distinguishes the two per record, which lets legacy
// JSON-lines journals — and mixed files from an in-place upgrade —
// replay transparently alongside binary frames. The CRC covers the
// payload; a frame whose checksum or length does not hold marks a torn
// tail, exactly like an unparsable trailing JSON line.
//
// Versioning rules: a reader accepts format bytes it knows (currently
// only 0x81) and treats anything else with the high bit set as a torn
// tail, so a downgrade never misparses newer frames as JSON. New
// fields are appended to a record's payload; decoders tolerate a
// shorter (older) payload by leaving the trailing fields zero, and a
// payload layout change takes a new format byte.
package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"time"
)

// Format1 is the format byte of version-1 frames. The high bit is set
// so no frame can be confused with the first byte of a JSON record.
const Format1 = 0x81

// castagnoli is the CRC32-C table (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC32-C of the payload.
func Checksum(payload []byte) uint32 {
	return crc32.Checksum(payload, castagnoli)
}

// AppendFrame appends one version-1 frame carrying payload to dst and
// returns the extended slice.
func AppendFrame(dst, payload []byte) []byte {
	dst = append(dst, Format1)
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, Checksum(payload))
	return append(dst, payload...)
}

// FramePayload returns the payload view of a frame built by
// AppendFrame (no checksum verification — the frame was just built or
// already scanned). It returns nil if frame is not a well-formed
// version-1 frame.
func FramePayload(frame []byte) []byte {
	if len(frame) == 0 || frame[0] != Format1 {
		return nil
	}
	n, ln := binary.Uvarint(frame[1:])
	if ln <= 0 {
		return nil
	}
	off := 1 + ln + 4
	if uint64(len(frame)) < uint64(off)+n {
		return nil
	}
	return frame[off : uint64(off)+n]
}

// ResealFrame recomputes and rewrites the checksum of a frame whose
// payload was patched in place (the delivery fan-out splices each
// queue's id into a shared frame). The frame must have been built by
// AppendFrame; a malformed frame is left untouched.
func ResealFrame(frame []byte) {
	if len(frame) == 0 || frame[0] != Format1 {
		return
	}
	n, ln := binary.Uvarint(frame[1:])
	if ln <= 0 {
		return
	}
	off := 1 + ln
	if uint64(len(frame)) < uint64(off)+4+n {
		return
	}
	binary.LittleEndian.PutUint32(frame[off:], Checksum(frame[off+4:uint64(off)+4+n]))
}

// A Scanner iterates the records of a journal file that may hold
// binary frames, legacy JSON lines, or both (an in-place upgrade
// appends frames after the JSON history). Each Next call auto-detects
// the next record's encoding by its first byte. Scanning stops at the
// first torn record: a frame whose length or checksum does not hold.
// A trailing JSON line without a newline is still returned — legacy
// loaders attempt to parse it and treat failure as the torn tail.
type Scanner struct {
	data  []byte
	off   int
	torn  bool
	frame []byte
}

// NewScanner returns a scanner over the full journal contents.
func NewScanner(data []byte) *Scanner { return &Scanner{data: data} }

// Next returns the next record: its payload bytes (a frame's payload,
// or a JSON line without its newline) and whether it was a binary
// frame. ok is false at end of input or at a torn frame (see Torn).
func (s *Scanner) Next() (rec []byte, isFrame, ok bool) {
	for s.off < len(s.data) && s.data[s.off] == '\n' {
		s.off++
	}
	if s.off >= len(s.data) {
		return nil, false, false
	}
	b := s.data[s.off]
	if b&0x80 != 0 {
		if b != Format1 {
			s.torn = true // an unknown (newer) format byte
			return nil, false, false
		}
		n, ln := binary.Uvarint(s.data[s.off+1:])
		if ln <= 0 {
			s.torn = true
			return nil, false, false
		}
		head := s.off + 1 + ln
		end := uint64(head) + 4 + n
		if end > uint64(len(s.data)) {
			s.torn = true // truncated frame: torn tail
			return nil, false, false
		}
		sum := binary.LittleEndian.Uint32(s.data[head:])
		payload := s.data[head+4 : end]
		if Checksum(payload) != sum {
			s.torn = true
			return nil, false, false
		}
		s.frame = s.data[s.off:end]
		s.off = int(end)
		return payload, true, true
	}
	s.frame = nil
	start := s.off
	for s.off < len(s.data) && s.data[s.off] != '\n' {
		s.off++
	}
	return s.data[start:s.off], false, true
}

// Frame returns the whole frame (header included) whose payload Next
// last returned, as a view into the scanned data; nil after a JSON line.
func (s *Scanner) Frame() []byte { return s.frame }

// Torn reports that scanning stopped at a corrupt or truncated binary
// frame rather than clean end of input.
func (s *Scanner) Torn() bool { return s.torn }

// Offset returns the byte offset of the next record to scan (separator
// bytes skipped). Read before each Next call it yields that record's
// exact start position — what a verifier reports, and where a repair
// would truncate.
func (s *Scanner) Offset() int64 {
	off := s.off
	for off < len(s.data) && s.data[off] == '\n' {
		off++
	}
	return int64(off)
}

// TornOffset returns the byte offset of the record at which scanning
// stopped. It is meaningful only when Torn reports true.
func (s *Scanner) TornOffset() int64 { return int64(s.off) }

// CorruptMidJournal distinguishes the two ways a journal can tear. A
// torn TAIL — a partial frame at end of file, the normal artifact of a
// crash mid-append — has nothing decodable after the tear point. MID-
// JOURNAL corruption (bit-rot or an overwrite inside committed history)
// leaves intact frames after the bad one. It reports true when at least
// one well-formed, checksum-valid frame exists past the tear, which is
// the signal recovery must surface loudly instead of silently serving
// the prefix.
func (s *Scanner) CorruptMidJournal() bool {
	if !s.torn {
		return false
	}
	for i := s.off + 1; i < len(s.data); i++ {
		if s.data[i] != Format1 {
			continue
		}
		if _, _, _, ok := frameAt(s.data, i); ok {
			return true
		}
	}
	return false
}

// frameAt tries to parse a checksum-valid version-1 frame starting at
// off, returning the payload bounds and total end offset.
func frameAt(data []byte, off int) (payloadOff, payloadLen, end int, ok bool) {
	if off >= len(data) || data[off] != Format1 {
		return 0, 0, 0, false
	}
	n, ln := binary.Uvarint(data[off+1:])
	if ln <= 0 {
		return 0, 0, 0, false
	}
	head := off + 1 + ln
	frameEnd := uint64(head) + 4 + n
	if frameEnd > uint64(len(data)) {
		return 0, 0, 0, false
	}
	sum := binary.LittleEndian.Uint32(data[head:])
	if Checksum(data[head+4:frameEnd]) != sum {
		return 0, 0, 0, false
	}
	return head + 4, int(n), int(frameEnd), true
}

// FrameSpan locates one committed frame inside a journal buffer.
type FrameSpan struct {
	Off        int64 // offset of the format byte
	PayloadOff int64 // offset of the first payload byte
	PayloadLen int   // payload length in bytes
}

// FrameSpans enumerates the well-formed binary frames of a journal in
// order, skipping legacy JSON lines, and stops at the first torn or
// corrupt record — the same walk a Scanner performs, but yielding byte
// positions instead of payloads. Fault-injection helpers and the fsck
// verifier use it to aim at (or report on) committed bytes.
func FrameSpans(data []byte) []FrameSpan {
	var spans []FrameSpan
	off := 0
	for off < len(data) {
		for off < len(data) && data[off] == '\n' {
			off++
		}
		if off >= len(data) {
			break
		}
		if data[off]&0x80 != 0 {
			pOff, pLen, end, ok := frameAt(data, off)
			if !ok {
				break
			}
			spans = append(spans, FrameSpan{Off: int64(off), PayloadOff: int64(pOff), PayloadLen: pLen})
			off = end
			continue
		}
		for off < len(data) && data[off] != '\n' {
			off++
		}
	}
	return spans
}

// ---------------------------------------------------------------------
// Append-style encoder primitives. All values use variable-length
// encodings so the common small values cost one byte.

// AppendUvarint appends an unsigned varint.
func AppendUvarint(dst []byte, v uint64) []byte { return binary.AppendUvarint(dst, v) }

// AppendVarint appends a zig-zag signed varint.
func AppendVarint(dst []byte, v int64) []byte { return binary.AppendVarint(dst, v) }

// AppendString appends a length-prefixed string.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendBytes appends a length-prefixed byte slice.
func AppendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// AppendBool appends one byte (0 or 1).
func AppendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// AppendTime appends a timestamp: a presence byte (0 for the zero
// time) followed by the wall clock as unix nanoseconds. Sub-nanosecond
// monotonic readings are dropped, as with JSON encoding.
func AppendTime(dst []byte, t time.Time) []byte {
	if t.IsZero() {
		return append(dst, 0)
	}
	dst = append(dst, 1)
	return binary.AppendVarint(dst, t.UnixNano())
}

// AppendUint64LE appends a fixed-width little-endian uint64 — used for
// fields patched in place (the fan-out id slot), where a varint's
// width would change with the value.
func AppendUint64LE(dst []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(dst, v)
}

// A Dec decodes the primitives appended by this package. Errors are
// sticky: after a short read every subsequent call returns the zero
// value, and Err reports the failure once at the end — callers check
// one error per record instead of one per field.
type Dec struct {
	b   []byte
	bad bool
}

// NewDec returns a decoder over one record payload.
func NewDec(b []byte) *Dec { return &Dec{b: b} }

func (d *Dec) fail() {
	d.bad = true
	d.b = nil
}

// Err returns the decoding error, if any field read ran short.
func (d *Dec) Err() error {
	if d.bad {
		return fmt.Errorf("wire: truncated record")
	}
	return nil
}

// Len returns how many bytes remain undecoded.
func (d *Dec) Len() int { return len(d.b) }

// Byte decodes one byte.
func (d *Dec) Byte() byte {
	if d.bad || len(d.b) < 1 {
		d.fail()
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

// Uvarint decodes an unsigned varint.
func (d *Dec) Uvarint() uint64 {
	if d.bad {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

// Varint decodes a zig-zag signed varint.
func (d *Dec) Varint() int64 {
	if d.bad {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

// Bytes decodes a length-prefixed byte slice as a view into the
// record buffer (valid while the buffer is).
func (d *Dec) Bytes() []byte {
	n := d.Uvarint()
	if d.bad || uint64(len(d.b)) < n {
		d.fail()
		return nil
	}
	v := d.b[:n]
	d.b = d.b[n:]
	return v
}

// String decodes a length-prefixed string.
func (d *Dec) String() string { return string(d.Bytes()) }

// Bool decodes one boolean byte.
func (d *Dec) Bool() bool { return d.Byte() != 0 }

// Time decodes a timestamp appended by AppendTime.
func (d *Dec) Time() time.Time {
	if d.Byte() == 0 || d.bad {
		return time.Time{}
	}
	return time.Unix(0, d.Varint())
}

// Uint64LE decodes a fixed-width little-endian uint64.
func (d *Dec) Uint64LE() uint64 {
	if d.bad || len(d.b) < 8 {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v
}
