package delivery

import (
	"encoding/json"
	"errors"
	"slices"
	"strconv"
	"strings"
	"time"

	"github.com/mcc-cmi/cmi/internal/wire"
)

// Reflection-free JSON for notifications: the body of GET
// /api/notifications/{p} and the data of every SSE notification event.
// The output is byte for byte what encoding/json writes for the same
// value — key order id, time, schema, description, params, priority,
// acked; params, priority and acked omitted when empty; param keys
// sorted; HTML-safe escaping; time in RFC 3339 with nanoseconds — which
// TestNotificationJSONMatchesEncodingJSON and FuzzNotificationJSON pin,
// so a field added to Notification fails them until it is added here.
// Param values of the kinds SanitizeParams emits (nil, string, bool,
// int64, int, []string) are written directly; any other value goes
// through json.Marshal, so it matches by construction.

// param is one params entry, sorted by key before it is written.
type param struct {
	k string
	v any
}

// AppendJSON appends ns as a JSON array (a nil or empty list as []). On
// error — a time outside RFC 3339 or a param value encoding/json
// rejects — dst is returned unchanged.
func AppendJSON(dst []byte, ns []Notification) ([]byte, error) {
	start := len(dst)
	dst = append(dst, '[')
	var ps []param
	var err error
	for i := range ns {
		if i > 0 {
			dst = append(dst, ',')
		}
		if dst, ps, err = appendNotifJSON(dst, &ns[i], ps); err != nil {
			return dst[:start], err
		}
	}
	return append(dst, ']'), nil
}

// AppendNotificationJSON appends n as a JSON object. On error dst is
// returned unchanged.
func AppendNotificationJSON(dst []byte, n *Notification) ([]byte, error) {
	start := len(dst)
	var small [16]param // covers a typical notification without allocating
	dst, _, err := appendNotifJSON(dst, n, small[:0])
	if err != nil {
		return dst[:start], err
	}
	return dst, nil
}

// appendNotifJSON appends one notification, reusing ps (returned, grown)
// to sort its params.
func appendNotifJSON(dst []byte, n *Notification, ps []param) ([]byte, []param, error) {
	dst = strconv.AppendInt(append(dst, `{"id":`...), n.ID, 10)
	dst = append(dst, `,"time":"`...)
	mark := len(dst)
	dst = n.Time.AppendFormat(dst, time.RFC3339Nano)
	if !strictRFC3339(dst[mark:]) {
		return dst, ps, errors.New("delivery: notification time " + string(dst[mark:]) + " is not valid RFC 3339")
	}
	dst = append(dst, '"')
	dst = wire.AppendJSONString(append(dst, `,"schema":`...), n.Schema)
	dst = wire.AppendJSONString(append(dst, `,"description":`...), n.Description)
	if len(n.Params) > 0 {
		ps = slices.Grow(ps[:0], len(n.Params))
		for k, v := range n.Params {
			ps = append(ps, param{k, v})
		}
		slices.SortFunc(ps, func(a, b param) int { return strings.Compare(a.k, b.k) })
		dst = append(dst, `,"params":{`...)
		for i := range ps {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(wire.AppendJSONString(dst, ps[i].k), ':')
			var err error
			if dst, err = appendParamJSON(dst, ps[i].v); err != nil {
				return dst, ps, err
			}
		}
		dst = append(dst, '}')
	}
	if n.Priority != 0 {
		dst = strconv.AppendInt(append(dst, `,"priority":`...), int64(n.Priority), 10)
	}
	if n.Acked {
		dst = append(dst, `,"acked":true`...)
	}
	return append(dst, '}'), ps, nil
}

func appendParamJSON(dst []byte, v any) ([]byte, error) {
	switch v := v.(type) {
	case nil:
		return append(dst, "null"...), nil
	case string:
		return wire.AppendJSONString(dst, v), nil
	case bool:
		return strconv.AppendBool(dst, v), nil
	case int64:
		return strconv.AppendInt(dst, v, 10), nil
	case int:
		return strconv.AppendInt(dst, int64(v), 10), nil
	case []string:
		if v == nil {
			return append(dst, "null"...), nil
		}
		dst = append(dst, '[')
		for i, s := range v {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = wire.AppendJSONString(dst, s)
		}
		return append(dst, ']'), nil
	}
	b, err := json.Marshal(v)
	if err != nil {
		return dst, err
	}
	return append(dst, b...), nil
}

// strictRFC3339 reports whether b, a time formatted with RFC3339Nano,
// is one time.Time.MarshalJSON accepts: a four-digit year and a zone
// offset under 24 hours.
func strictRFC3339(b []byte) bool {
	if len(b) < len("2006-01-02T15:04:05Z") || b[len("2006")] != '-' {
		return false
	}
	if b[len(b)-1] == 'Z' {
		return true
	}
	zone := b[len(b)-len("Z07:00"):]
	return (zone[0] == '+' || zone[0] == '-') && (zone[1]-'0')*10+(zone[2]-'0') < 24
}
