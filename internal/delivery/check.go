package delivery

import (
	"encoding/json"

	"github.com/mcc-cmi/cmi/internal/wire"
)

// A JournalCheck is the offline verification report for one participant
// journal, produced by CheckJournal — the delivery half of the
// `cmictl fsck` state-dir verifier.
type JournalCheck struct {
	// Records counts the decodable records (binary frames and legacy
	// JSON lines) before any damage point.
	Records int
	// Notifs counts the notification records.
	Notifs int
	// Acks counts the acknowledgment records.
	Acks int
	// NextID is the id high-water mark the journal implies — the same
	// value a load would compute.
	NextID int64
	// MaxID is the highest notification id seen.
	MaxID int64
	// BadRecords counts records that parsed as neither a known binary
	// record nor a known JSON record, excluding a torn final line.
	BadRecords int
	// IDRegressions counts notif records whose id failed to increase —
	// ids are assigned monotonically, so any regression means damage.
	IDRegressions int
	// OrphanAcks counts ack records whose id no record in the journal
	// carries. Compaction keeps every unacknowledged notification, so
	// these are anomalies worth reporting, though not proof of damage.
	OrphanAcks int
	// Torn reports the scan stopped before end of file: at a bad frame
	// or an unparsable final line.
	Torn bool
	// Corrupt reports mid-journal (non-tail) corruption: the tear has
	// intact frames after it, so this is bit-rot inside committed
	// history, not a crashed append.
	Corrupt bool
	// TornOffset is the byte offset of the record the scan stopped at
	// (meaningful when Torn is set).
	TornOffset int64
}

// Damaged reports whether the journal needs repair: anything beyond the
// torn tail a crash legitimately leaves behind.
func (c JournalCheck) Damaged() bool {
	return c.Corrupt || c.BadRecords > 0 || c.IDRegressions > 0
}

// CheckJournal verifies one participant journal offline: every frame
// CRC, every record decode, notification-id monotonicity and the ack
// cross-references, decoding records as queue load does. It never
// modifies the data; quarantine decisions belong to the caller.
func CheckJournal(data []byte) JournalCheck {
	var c JournalCheck
	c.NextID = 1
	sc := wire.NewScanner(data)
	ids := make(map[int64]bool)
	var orphan []int64
	pendingBad := false
	lastID := int64(0)
	for {
		off := sc.Offset()
		rec, isFrame, ok := sc.Next()
		if !ok {
			break
		}
		if pendingBad {
			// The earlier bad record was not the final one: real damage,
			// not a torn trailing line.
			c.BadRecords++
			pendingBad = false
		}
		var r record
		if isFrame {
			if decodeRecord(rec, &r) != nil {
				// A checksum-valid frame that fails to decode was fully
				// committed — damage, never a torn write.
				c.BadRecords++
				c.Corrupt = true
				if !c.Torn {
					c.Torn, c.TornOffset = true, off
				}
				continue
			}
		} else if json.Unmarshal(rec, &r) != nil {
			pendingBad = true
			continue
		} else if r.Notif != nil {
			r.id = r.Notif.ID
		}
		c.Records++
		switch r.Kind {
		case "notif":
			if !isFrame && r.Notif == nil {
				c.BadRecords++
				continue
			}
			c.Notifs++
			ids[r.id] = true
			if r.id <= lastID {
				c.IDRegressions++
			}
			lastID = r.id
			if r.id > c.MaxID {
				c.MaxID = r.id
			}
			if r.id >= c.NextID {
				c.NextID = r.id + 1
			}
		case "ack":
			c.Acks++
			if !ids[r.AckID] {
				orphan = append(orphan, r.AckID)
			}
		case "key":
			// bare idempotency key; nothing to cross-check
		case "next":
			if r.NextID > c.NextID {
				c.NextID = r.NextID
			}
		default:
			c.BadRecords++
		}
	}
	if pendingBad {
		c.Torn = true // unparsable final line: legacy torn tail
	}
	for _, id := range orphan {
		if !ids[id] {
			c.OrphanAcks++
		}
	}
	if sc.Torn() {
		if !c.Torn {
			c.Torn, c.TornOffset = true, sc.TornOffset()
		}
		c.Corrupt = c.Corrupt || sc.CorruptMidJournal()
	}
	return c
}
