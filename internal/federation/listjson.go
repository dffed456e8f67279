package federation

import (
	"net/http"

	"github.com/mcc-cmi/cmi/internal/enact"
	"github.com/mcc-cmi/cmi/internal/wire"
)

// Reflection-free list bodies for the three lists a participant client
// polls: GET /api/worklist/{p} and GET /api/processes/{id}/monitor are
// encoded here, GET /api/notifications/{p} by delivery.AppendJSON; all
// three share listBuf/writeListBody and wire.AppendJSONString. The
// output is byte-for-byte what json.NewEncoder(w).Encode produced for
// the same slice — same key order, same HTML-safe string escaping, same
// trailing newline — which TestListJSONMatchesEncodingJSON and
// FuzzListJSON pin, so a field added to either struct fails them until
// it is added here.

// Row size hints pre-size a body. The fixed keys and punctuation of a
// worklist or monitor row are about 110 bytes, ids and names make up
// the rest. A notification's own keys take about 70 bytes; its params,
// about 14 (the detected event's plus the output operator's delivery
// instructions), take most of the rest.
const (
	rowBytesHint   = 192
	notifBytesHint = 448
)

// listBuf borrows a body buffer sized for n rows of about rowBytes each.
func listBuf(n, rowBytes int) []byte { return wire.GetBuf(2 + n*rowBytes) }

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
		dst = wire.AppendJSONString(append(dst, `{"ActivityID":`...), it.ActivityID)
		dst = wire.AppendJSONString(append(dst, `,"Var":`...), it.Var)
		dst = wire.AppendJSONString(append(dst, `,"SchemaName":`...), it.SchemaName)
		dst = wire.AppendJSONString(append(dst, `,"ProcessID":`...), it.ProcessID)
		dst = wire.AppendJSONString(append(dst, `,"ProcessSchema":`...), it.ProcessSchema)
		dst = wire.AppendJSONString(append(dst, `,"State":`...), string(it.State))
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
		dst = wire.AppendJSONString(append(dst, `{"ProcessID":`...), r.ProcessID)
		dst = wire.AppendJSONString(append(dst, `,"ProcessSchema":`...), r.ProcessSchema)
		dst = wire.AppendJSONString(append(dst, `,"ActivityID":`...), r.ActivityID)
		dst = wire.AppendJSONString(append(dst, `,"Var":`...), r.Var)
		dst = wire.AppendJSONString(append(dst, `,"State":`...), string(r.State))
		dst = wire.AppendJSONString(append(dst, `,"Assignee":`...), r.Assignee)
		dst = append(dst, '}')
	}
	return append(dst, ']', '\n')
}
