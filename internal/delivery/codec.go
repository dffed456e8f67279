package delivery

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"

	"github.com/mcc-cmi/cmi/internal/wire"
)

// Binary journal record codec. New records are written as wire frames
// (see package wire); the loader still accepts the legacy JSON-lines
// records, so existing state dirs upgrade in place. Record payloads:
//
//	notif:  kind=1, id (8 B LE — fixed width so the fan-out splice can
//	        patch it in place), key, then the notification body
//	ack:    kind=2, id varint
//	key:    kind=3, key string
//	next:   kind=4, next-id varint
//
// The notification body is time, schema, description, priority varint,
// acked bool, and the params map. New fields append after params.
const (
	recNotif = 1
	recAck   = 2
	recKey   = 3
	recNext  = 4
)

// notifIDOffset is the byte offset of the fixed-width id inside a notif
// record payload.
const notifIDOffset = 1

// Param value tags. SanitizeParams emits nil, string, bool, int64 and
// []string; float64 appears in maps that round-tripped through JSON,
// and anything else falls back to an embedded JSON value.
const (
	pvNil     = 0
	pvString  = 1
	pvBool    = 2
	pvInt     = 3
	pvFloat   = 4
	pvStrings = 5
	pvJSON    = 6
)

func appendParamValue(dst []byte, v any) []byte {
	switch v := v.(type) {
	case nil:
		return append(dst, pvNil)
	case string:
		dst = append(dst, pvString)
		return wire.AppendString(dst, v)
	case bool:
		dst = append(dst, pvBool)
		return wire.AppendBool(dst, v)
	case int64:
		dst = append(dst, pvInt)
		return wire.AppendVarint(dst, v)
	case int:
		dst = append(dst, pvInt)
		return wire.AppendVarint(dst, int64(v))
	case float64:
		dst = append(dst, pvFloat)
		return wire.AppendUint64LE(dst, math.Float64bits(v))
	case []string:
		dst = append(dst, pvStrings)
		dst = wire.AppendUvarint(dst, uint64(len(v)))
		for _, s := range v {
			dst = wire.AppendString(dst, s)
		}
		return dst
	default:
		b, err := json.Marshal(v)
		if err != nil {
			b = nil // decodes back to nil; SanitizeParams never produces such a value
		}
		dst = append(dst, pvJSON)
		return wire.AppendBytes(dst, b)
	}
}

func decodeParamValue(d *wire.Dec) any {
	switch d.Byte() {
	case pvNil:
		return nil
	case pvString:
		return d.String()
	case pvBool:
		return d.Bool()
	case pvInt:
		return d.Varint()
	case pvFloat:
		return math.Float64frombits(d.Uint64LE())
	case pvStrings:
		n := d.Uvarint()
		out := make([]string, 0, n)
		for i := uint64(0); i < n && d.Err() == nil; i++ {
			out = append(out, d.String())
		}
		return out
	case pvJSON:
		b := d.Bytes()
		if len(b) == 0 {
			return nil
		}
		var v any
		if json.Unmarshal(b, &v) != nil {
			return nil
		}
		return v
	default:
		return nil
	}
}

// appendNotifBody encodes the notification fields shared by the journal
// record and the federation spool entry (everything but the id).
func appendNotifBody(dst []byte, n *Notification) []byte {
	dst = wire.AppendTime(dst, n.Time)
	dst = wire.AppendString(dst, n.Schema)
	dst = wire.AppendString(dst, n.Description)
	dst = wire.AppendVarint(dst, int64(n.Priority))
	dst = wire.AppendBool(dst, n.Acked)
	dst = wire.AppendUvarint(dst, uint64(len(n.Params)))
	for k, v := range n.Params {
		dst = wire.AppendString(dst, k)
		dst = appendParamValue(dst, v)
	}
	return dst
}

func decodeNotifBody(d *wire.Dec, n *Notification) {
	n.Time = d.Time()
	n.Schema = d.String()
	n.Description = d.String()
	n.Priority = int(d.Varint())
	n.Acked = d.Bool()
	if cnt := d.Uvarint(); cnt > 0 && d.Err() == nil {
		n.Params = make(map[string]any, cnt)
		for i := uint64(0); i < cnt && d.Err() == nil; i++ {
			k := d.String()
			n.Params[k] = decodeParamValue(d)
		}
	}
}

// AppendNotificationBinary encodes a full notification (id included, as
// a varint) — the shared body codec reused by the federation spool.
func AppendNotificationBinary(dst []byte, n *Notification) []byte {
	dst = wire.AppendVarint(dst, n.ID)
	return appendNotifBody(dst, n)
}

// DecodeNotificationBinary decodes a notification encoded by
// AppendNotificationBinary from d.
func DecodeNotificationBinary(d *wire.Dec) (Notification, error) {
	var n Notification
	n.ID = d.Varint()
	decodeNotifBody(d, &n)
	return n, d.Err()
}

// appendRecordNotif encodes a notif journal-record payload. The id is
// fixed-width at notifIDOffset so EnqueueFanout can patch a shared
// frame per queue and reseal it.
func appendRecordNotif(dst []byte, key string, n *Notification) []byte {
	dst = append(dst, recNotif)
	dst = wire.AppendUint64LE(dst, uint64(n.ID))
	dst = wire.AppendString(dst, key)
	return appendNotifBody(dst, n)
}

func appendRecordAck(dst []byte, id int64) []byte {
	dst = append(dst, recAck)
	return wire.AppendVarint(dst, id)
}

func appendRecordKey(dst []byte, key string) []byte {
	dst = append(dst, recKey)
	return wire.AppendString(dst, key)
}

func appendRecordNext(dst []byte, next int64) []byte {
	dst = append(dst, recNext)
	return wire.AppendVarint(dst, next)
}

// patchNotifID rewrites the fixed-width id slot of a framed notif
// record in place and reseals the frame checksum.
func patchNotifID(frame []byte, id int64) {
	p := wire.FramePayload(frame)
	binary.LittleEndian.PutUint64(p[notifIDOffset:], uint64(id))
	wire.ResealFrame(frame)
}

// decodeRecord decodes one binary journal-record payload into r. A
// notif body is only checked (skipNotifBody) and left in r.body, with
// r.Notif nil: load decodes it later only if the notification survives.
func decodeRecord(payload []byte, r *record) (err error) {
	d := wire.NewDec(payload)
	switch d.Byte() {
	case recNotif:
		r.id = int64(d.Uint64LE())
		r.Kind, r.Key = "notif", string(d.Bytes())
		r.body = payload[len(payload)-d.Len():]
		r.acked, err = skipNotifBody(r.body)
		return err
	case recAck:
		r.Kind = "ack"
		r.AckID = d.Varint()
	case recKey:
		r.Kind = "key"
		r.Key = d.String()
	case recNext:
		r.Kind = "next"
		r.NextID = d.Varint()
	default:
		return fmt.Errorf("delivery: unknown binary record kind")
	}
	return d.Err()
}

// skipNotifBody walks an encoded notification body without building
// it, allocation-free. It fails exactly where decodeNotifBody would, and
// returns the body's acked byte.
func skipNotifBody(b []byte) (acked bool, err error) {
	d := wire.NewDec(b)
	if d.Byte() != 0 {
		d.Varint() // time
	}
	d.Bytes() // schema
	d.Bytes() // description
	d.Varint()
	acked = d.Bool()
	for i, cnt := uint64(0), d.Uvarint(); i < cnt && d.Err() == nil; i++ {
		d.Bytes()
		switch d.Byte() {
		case pvString, pvJSON:
			d.Bytes()
		case pvBool:
			d.Byte()
		case pvInt:
			d.Varint()
		case pvFloat:
			d.Uint64LE()
		case pvStrings:
			for j, n := uint64(0), d.Uvarint(); j < n && d.Err() == nil; j++ {
				d.Bytes()
			}
		}
	}
	return acked, d.Err()
}

// notifRecordSize estimates the encoded payload size for pool sizing.
func notifRecordSize(key string, n *Notification) int {
	sz := 32 + len(key) + len(n.Schema) + len(n.Description)
	for k, v := range n.Params {
		sz += len(k) + 16
		switch v := v.(type) {
		case string:
			sz += len(v)
		case []string:
			for _, s := range v {
				sz += len(s) + 4
			}
		}
	}
	return sz
}
