package federation

import (
	"net/http"
	"unicode/utf8"

	"github.com/mcc-cmi/cmi/internal/enact"
	"github.com/mcc-cmi/cmi/internal/wire"
)

// Reflection-free encoders for the two list bodies a participant client
// polls: GET /api/worklist/{p} and GET /api/processes/{id}/monitor. The
// output is byte-for-byte what json.NewEncoder(w).Encode produced for
// the same slice — same key order, same HTML-safe string escaping, same
// trailing newline — which TestListJSONMatchesEncodingJSON pins, so a
// field added to either struct fails that test until it is added here.

// rowBytesHint pre-sizes a body: the fixed keys and punctuation of a row
// are about 110 bytes, ids and names make up the rest.
const rowBytesHint = 192

// listBuf borrows a body buffer sized for n rows.
func listBuf(n int) []byte { return wire.GetBuf(2 + n*rowBytesHint) }

// writeListBody sends a body built in a listBuf as a 200 JSON response
// and recycles the buffer.
func writeListBody(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body) // a failed write means the client went away
	wire.PutBuf(body)
}

// appendWorkItems appends the JSON array of items and a newline; an
// empty or nil list encodes as [].
func appendWorkItems(dst []byte, items []enact.WorkItem) []byte {
	dst = append(dst, '[')
	for i := range items {
		it := &items[i]
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendJSONString(append(dst, `{"ActivityID":`...), it.ActivityID)
		dst = appendJSONString(append(dst, `,"Var":`...), it.Var)
		dst = appendJSONString(append(dst, `,"SchemaName":`...), it.SchemaName)
		dst = appendJSONString(append(dst, `,"ProcessID":`...), it.ProcessID)
		dst = appendJSONString(append(dst, `,"ProcessSchema":`...), it.ProcessSchema)
		dst = appendJSONString(append(dst, `,"State":`...), string(it.State))
		dst = append(dst, '}')
	}
	return append(dst, ']', '\n')
}

// appendMonitorRows appends the JSON array of rows and a newline; an
// empty or nil list encodes as [].
func appendMonitorRows(dst []byte, rows []enact.MonitorRow) []byte {
	dst = append(dst, '[')
	for i := range rows {
		r := &rows[i]
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendJSONString(append(dst, `{"ProcessID":`...), r.ProcessID)
		dst = appendJSONString(append(dst, `,"ProcessSchema":`...), r.ProcessSchema)
		dst = appendJSONString(append(dst, `,"ActivityID":`...), r.ActivityID)
		dst = appendJSONString(append(dst, `,"Var":`...), r.Var)
		dst = appendJSONString(append(dst, `,"State":`...), string(r.State))
		dst = appendJSONString(append(dst, `,"Assignee":`...), r.Assignee)
		dst = append(dst, '}')
	}
	return append(dst, ']', '\n')
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string literal exactly as
// encoding/json does with HTML escaping on (its default): ", \ and the
// control bytes are escaped (\b \f \n \r \t short, the rest \u00XX), so
// are < > & and U+2028/U+2029, and each byte of invalid UTF-8 becomes
// the six characters \ufffd.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\u202`...)
			dst = append(dst, hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
