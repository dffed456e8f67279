package enact

import (
	"slices"
	"strings"

	"github.com/mcc-cmi/cmi/internal/core"
)

// A WorkItem is one entry on a participant's worklist: a Ready activity
// the participant may start (because they play its performer role), or a
// Running/Suspended activity assigned to them. This is the traditional
// WfMS worklist of the CMI Client for Participants (Figure 5).
type WorkItem struct {
	ActivityID    string
	Var           string
	SchemaName    string
	ProcessID     string
	ProcessSchema string
	State         core.State
}

// Worklist returns the participant's current work items, sorted by
// activity instance id. Work items span every family, so it takes the
// all-stripe lock for one consistent cross-family view — but under that
// hold it visits only the open-work index (the activities that are
// Ready, Running or Suspended right now), never the closed history: the
// hold lasts as long as there is open work, however long the engine has
// been running. Who may start a Ready activity is resolved at read
// time, because org and scoped roles can change after it became Ready.
func (e *Engine) Worklist(participantID string) []WorkItem {
	h := e.lockAll()
	defer h.unlock()
	return e.worklistHeld(participantID)
}

// worklistHeld is Worklist under an all-stripe hold.
func (e *Engine) worklistHeld(participantID string) []WorkItem {
	var out []WorkItem
	for _, st := range e.stripes {
		for _, ai := range st.open {
			if !e.mayWorkOn(ai, participantID) {
				continue
			}
			out = append(out, WorkItem{
				ActivityID:    ai.id,
				Var:           ai.varName,
				SchemaName:    ai.schema.SchemaName(),
				ProcessID:     ai.proc.id,
				ProcessSchema: ai.proc.schema.Name,
				State:         ai.state,
			})
		}
	}
	slices.SortFunc(out, func(a, b WorkItem) int { return strings.Compare(a.ActivityID, b.ActivityID) })
	return out
}

// mayWorkOn reports whether the open activity belongs on the
// participant's worklist: assigned to them, or Ready, unassigned and
// theirs to start by performer role. Automatic activities (no performer
// role) are nobody's work.
func (e *Engine) mayWorkOn(ai *ActivityInstance, participantID string) bool {
	states := ai.schema.States()
	switch {
	case states.IsSubstateOf(ai.state, core.Ready):
		if ai.assignee != "" {
			return ai.assignee == participantID
		}
		role := performerRole(ai.schema)
		if role == "" {
			return false
		}
		ids, err := e.contexts.ResolveRole(e.dir, role, ai.proc.Ref())
		return err == nil && containsString(ids, participantID)
	case states.IsSubstateOf(ai.state, core.Running) || states.IsSubstateOf(ai.state, core.Suspended):
		return ai.assignee == participantID
	}
	return false
}

// MonitorRow is one row of the process monitoring tool: the full status of
// one activity instance of one process instance.
type MonitorRow struct {
	ProcessID     string
	ProcessSchema string
	ActivityID    string
	Var           string
	State         core.State
	Assignee      string
}

// Monitor returns the status of every activity instance of the process,
// recursing into running and closed subprocesses — the "managers monitor
// the entire process" view that WfMSs build in (Section 2). Rows are
// ordered by process id, then activity id.
func (e *Engine) Monitor(processID string) []MonitorRow {
	// Monitoring recurses through one process family only, so its
	// stripe lock gives a consistent view; it is held for the copy only.
	pi, ok := e.proc(processID)
	if !ok {
		return nil
	}
	h := e.lockStripe(pi.stripe)
	defer h.unlock()
	return monitorHeld(pi)
}

// monitorHeld is Monitor under the family's stripe lock. Each process
// keeps its rows in id order, so only the handful of process ids of the
// subtree are sorted; the rows are one linear copy into a pre-sized
// result.
func monitorHeld(pi *ProcessInstance) []MonitorRow {
	procs, n := pi.subtree(nil)
	if n == 0 {
		return nil
	}
	slices.SortFunc(procs, func(a, b *ProcessInstance) int { return strings.Compare(a.id, b.id) })
	out := make([]MonitorRow, 0, n)
	for _, p := range procs {
		for _, ai := range p.byID {
			out = append(out, MonitorRow{
				ProcessID:     p.id,
				ProcessSchema: p.schema.Name,
				ActivityID:    ai.id,
				Var:           ai.varName,
				State:         ai.state,
				Assignee:      ai.assignee,
			})
		}
	}
	return out
}

// subtree appends pi and every started subprocess beneath it to procs,
// and returns the number of activity instances they hold together.
func (pi *ProcessInstance) subtree(procs []*ProcessInstance) ([]*ProcessInstance, int) {
	procs = append(procs, pi)
	n := len(pi.byID)
	for _, ai := range pi.byID {
		if ai.child != nil {
			var m int
			procs, m = ai.child.subtree(procs)
			n += m
		}
	}
	return procs, n
}
