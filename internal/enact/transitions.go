package enact

import (
	"fmt"

	"github.com/mcc-cmi/cmi/internal/core"
	"github.com/mcc-cmi/cmi/internal/event"
)

// Assign records a participant as the assignee of a Ready activity. The
// participant must play the activity's performer role (if one is
// declared).
func (e *Engine) Assign(activityID, participantID string) error {
	return e.assign(activityID, participantID, nil)
}

func (e *Engine) assign(activityID, participantID string, src *replaySrc) error {
	return e.runAct(activityID, &walRecord{Kind: walAssign, Act: activityID, User: participantID}, src, func(*pending) error {
		ai, ok := e.act(activityID)
		if !ok {
			return fmt.Errorf("enact: unknown activity instance %q: %w", activityID, core.ErrNotFound)
		}
		if !ai.schema.States().IsSubstateOf(ai.state, core.Ready) {
			return fmt.Errorf("enact: activity %s is %s, not Ready", activityID, ai.state)
		}
		if err := e.checkPerformerLocked(ai, participantID); err != nil {
			return err
		}
		ai.assignee = participantID
		return nil
	})
}

// checkPerformerLocked verifies that the user may perform the activity:
// either the activity declares no performer role, or the user plays it
// (scoped roles are resolved within the owning process instance's scope).
func (e *Engine) checkPerformerLocked(ai *ActivityInstance, user string) error {
	if e.replaying.Load() {
		// The directory is not persisted; the check passed when the
		// operation was journaled.
		return nil
	}
	role := performerRole(ai.schema)
	if role == "" || user == "" {
		return nil
	}
	ids, err := e.contexts.ResolveRole(e.dir, role, ai.proc.Ref())
	if err != nil {
		return fmt.Errorf("enact: cannot resolve performer role %q: %w", role, err)
	}
	for _, id := range ids {
		if id == user {
			return nil
		}
	}
	return fmt.Errorf("enact: participant %q does not play role %q for activity %s", user, role, ai.id)
}

func performerRole(s core.ActivitySchema) core.RoleRef {
	if b, ok := s.(*core.BasicActivitySchema); ok {
		if b.PerformerRole != "" {
			return b.PerformerRole
		}
		for _, rv := range b.ResourceVars {
			if rv.Usage == core.UsageRole {
				return rv.Role
			}
		}
	}
	return ""
}

// Start moves a Ready activity to Running on behalf of user. Starting a
// subprocess invocation instantiates the invoked process schema, binding
// contexts per the activity variable's Bind map; the subprocess shares
// the activity instance's id.
func (e *Engine) Start(activityID, user string) error {
	return e.start(activityID, user, nil)
}

func (e *Engine) start(activityID, user string, src *replaySrc) error {
	return e.runAct(activityID, &walRecord{Kind: walStart, Act: activityID, User: user}, src, func(p *pending) error {
		return e.startActivityLocked(p, activityID, user)
	})
}

func (e *Engine) startActivityLocked(p *pending, activityID, user string) error {
	ai, ok := e.act(activityID)
	if !ok {
		return fmt.Errorf("enact: unknown activity instance %q: %w", activityID, core.ErrNotFound)
	}
	if err := e.checkPerformerLocked(ai, user); err != nil {
		return err
	}
	if err := e.transitionActivityLocked(p, ai, core.Running, user); err != nil {
		return err
	}
	if user != "" {
		ai.assignee = user
	}
	if sub, ok := ai.schema.(*core.ProcessSchema); ok && ai.child == nil {
		av, _ := ai.proc.activityVar(ai.varName)
		inputs := map[string]string{}
		for childVar, parentVar := range av.Bind {
			ctxID, ok := ai.proc.ctxIDs[parentVar]
			if !ok {
				return fmt.Errorf("enact: parent context variable %q is unbound", parentVar)
			}
			inputs[childVar] = ctxID
		}
		child, err := e.startProcessLocked(p, sub, ai, "", user, StartOptions{Initiator: user, InputContexts: inputs})
		if err != nil {
			return err
		}
		ai.child = child
	}
	return nil
}

// Complete moves a Running activity to Completed and fires the dependency
// rules of the owning process. Completing a subprocess invocation
// directly is rejected — the subprocess completes itself.
func (e *Engine) Complete(activityID, user string) error {
	return e.complete(activityID, user, nil)
}

func (e *Engine) complete(activityID, user string, src *replaySrc) error {
	return e.runAct(activityID, &walRecord{Kind: walComplete, Act: activityID, User: user}, src, func(p *pending) error {
		ai, ok := e.act(activityID)
		if !ok {
			return fmt.Errorf("enact: unknown activity instance %q: %w", activityID, core.ErrNotFound)
		}
		if ai.child != nil && isActive(ai.child.schema.States(), ai.child.state) {
			return fmt.Errorf("enact: activity %s is a running subprocess; it completes when the subprocess does", activityID)
		}
		if ai.IsSubprocess() && ai.child == nil {
			return fmt.Errorf("enact: subprocess activity %s has not started", activityID)
		}
		if ai.child != nil {
			return fmt.Errorf("enact: subprocess activity %s already closed", activityID)
		}
		return e.completeActivityLocked(p, ai, user)
	})
}

func (e *Engine) completeActivityLocked(p *pending, ai *ActivityInstance, user string) error {
	if err := e.transitionActivityLocked(p, ai, core.Completed, user); err != nil {
		return err
	}
	if err := e.fireDependenciesLocked(p, ai.proc, ai.varName, user); err != nil {
		return err
	}
	return e.checkProcessCompletionLocked(p, ai.proc, user)
}

// Terminate moves an activity to Terminated. Terminating a started
// subprocess terminates the subprocess instance recursively.
func (e *Engine) Terminate(activityID, user string) error {
	return e.terminate(activityID, user, nil)
}

func (e *Engine) terminate(activityID, user string, src *replaySrc) error {
	return e.runAct(activityID, &walRecord{Kind: walTerminate, Act: activityID, User: user}, src, func(p *pending) error {
		ai, ok := e.act(activityID)
		if !ok {
			return fmt.Errorf("enact: unknown activity instance %q: %w", activityID, core.ErrNotFound)
		}
		if ai.child != nil && isActive(ai.child.schema.States(), ai.child.state) {
			return e.terminateProcessLocked(p, ai.child, user)
		}
		if err := e.transitionActivityLocked(p, ai, core.Terminated, user); err != nil {
			return err
		}
		return e.checkProcessCompletionLocked(p, ai.proc, user)
	})
}

// Suspend moves a Running activity to Suspended.
func (e *Engine) Suspend(activityID, user string) error {
	return e.suspend(activityID, user, nil)
}

func (e *Engine) suspend(activityID, user string, src *replaySrc) error {
	return e.simpleTransition(&walRecord{Kind: walSuspend, Act: activityID, User: user}, activityID, core.Suspended, user, src)
}

// Resume moves a Suspended activity back to Running.
func (e *Engine) Resume(activityID, user string) error {
	return e.resume(activityID, user, nil)
}

func (e *Engine) resume(activityID, user string, src *replaySrc) error {
	return e.runAct(activityID, &walRecord{Kind: walResume, Act: activityID, User: user}, src, func(p *pending) error {
		ai, ok := e.act(activityID)
		if !ok {
			return fmt.Errorf("enact: unknown activity instance %q: %w", activityID, core.ErrNotFound)
		}
		if !ai.schema.States().IsSubstateOf(ai.state, core.Suspended) {
			return fmt.Errorf("enact: activity %s is %s, not Suspended", activityID, ai.state)
		}
		return e.transitionActivityLocked(p, ai, core.Running, user)
	})
}

func (e *Engine) simpleTransition(rec *walRecord, activityID string, intent core.State, user string, src *replaySrc) error {
	return e.runAct(activityID, rec, src, func(p *pending) error {
		ai, ok := e.act(activityID)
		if !ok {
			return fmt.Errorf("enact: unknown activity instance %q: %w", activityID, core.ErrNotFound)
		}
		return e.transitionActivityLocked(p, ai, intent, user)
	})
}

// Transition moves an activity to an explicit leaf state — the escape
// hatch for application-specific states that do not map onto the generic
// intents.
func (e *Engine) Transition(activityID string, to core.State, user string) error {
	return e.transition(activityID, to, user, nil)
}

func (e *Engine) transition(activityID string, to core.State, user string, src *replaySrc) error {
	return e.runAct(activityID, &walRecord{Kind: walTransition, Act: activityID, To: string(to), User: user}, src, func(p *pending) error {
		ai, ok := e.act(activityID)
		if !ok {
			return fmt.Errorf("enact: unknown activity instance %q: %w", activityID, core.ErrNotFound)
		}
		states := ai.schema.States()
		if !states.Legal(ai.state, to) {
			return fmt.Errorf("enact: activity %s: illegal transition %s -> %s", activityID, ai.state, to)
		}
		old := ai.state
		e.setActState(ai, to)
		e.emitActivity(p, ai, old, to, user)
		if states.IsSubstateOf(to, core.Completed) {
			if err := e.fireDependenciesLocked(p, ai.proc, ai.varName, user); err != nil {
				return err
			}
			return e.checkProcessCompletionLocked(p, ai.proc, user)
		}
		if states.IsSubstateOf(to, core.Terminated) {
			return e.checkProcessCompletionLocked(p, ai.proc, user)
		}
		return nil
	})
}

// transitionActivityLocked performs a generic-intent transition (the
// target leaf is chosen under the intent per the activity's possibly
// refined state schema).
func (e *Engine) transitionActivityLocked(p *pending, ai *ActivityInstance, intent core.State, user string) error {
	states := ai.schema.States()
	to := e.defaultTarget(states, ai.state, intent)
	if !states.Legal(ai.state, to) {
		return fmt.Errorf("enact: activity %s: illegal transition %s -> %s", ai.id, ai.state, intent)
	}
	old := ai.state
	e.setActState(ai, to)
	e.emitActivity(p, ai, old, to, user)
	return nil
}

// fireDependenciesLocked evaluates the process's dependency rules after
// the named activity variable completed an instance.
func (e *Engine) fireDependenciesLocked(p *pending, pi *ProcessInstance, completedVar, user string) error {
	for _, d := range pi.allDependencies() {
		if !containsString(d.Sources, completedVar) {
			continue
		}
		switch d.Type {
		case core.DepSequence:
			if err := e.enableTargetLocked(p, pi, d.Target, user); err != nil {
				return err
			}
		case core.DepOrJoin:
			if err := e.enableTargetLocked(p, pi, d.Target, user); err != nil {
				return err
			}
		case core.DepAndJoin:
			all := true
			for _, src := range d.Sources {
				if !e.varCompletedLocked(pi, src) {
					all = false
					break
				}
			}
			if all {
				if err := e.enableTargetLocked(p, pi, d.Target, user); err != nil {
					return err
				}
			}
		case core.DepGuard:
			ok, err := e.evalGuardLocked(p, pi, d.Guard)
			if err != nil {
				return err
			}
			if ok {
				if err := e.enableTargetLocked(p, pi, d.Target, user); err != nil {
					return err
				}
			}
		case core.DepCancel:
			if err := e.cancelTargetLocked(p, pi, d.Target, user); err != nil {
				return err
			}
		}
	}
	return nil
}

func containsString(xs []string, x string) bool {
	for _, s := range xs {
		if s == x {
			return true
		}
	}
	return false
}

// enableTargetLocked makes the target activity variable Ready: a fresh
// instance is created unless a live (not closed) one already exists.
// Cancelled variables stay cancelled.
func (e *Engine) enableTargetLocked(p *pending, pi *ProcessInstance, target, user string) error {
	if pi.cancelled[target] {
		return nil
	}
	av, ok := pi.activityVar(target)
	if !ok {
		return fmt.Errorf("enact: dependency targets unknown activity %q", target)
	}
	for _, ai := range pi.acts[target] {
		if isActive(ai.schema.States(), ai.state) || ai.state == core.Uninitialized {
			return nil // already enabled or running
		}
	}
	if len(pi.acts[target]) > 0 && !av.Repeatable {
		return nil // completed before; non-repeatable
	}
	_, err := e.instantiateActivityLocked(p, pi, av, user)
	return err
}

// cancelTargetLocked terminates live instances of the target variable and
// marks it cancelled so it never blocks process completion — the "other
// lab tests are not necessary" pattern.
func (e *Engine) cancelTargetLocked(p *pending, pi *ProcessInstance, target, user string) error {
	pi.cancelled[target] = true
	for _, ai := range pi.acts[target] {
		if !isActive(ai.schema.States(), ai.state) {
			continue
		}
		if ai.child != nil && isActive(ai.child.schema.States(), ai.child.state) {
			if err := e.terminateProcessLocked(p, ai.child, user); err != nil {
				return err
			}
			continue
		}
		if err := e.transitionActivityLocked(p, ai, core.Terminated, user); err != nil {
			return err
		}
	}
	return nil
}

// varCompletedLocked reports whether the activity variable has at least
// one Completed instance.
func (e *Engine) varCompletedLocked(pi *ProcessInstance, varName string) bool {
	for _, ai := range pi.acts[varName] {
		if ai.schema.States().IsSubstateOf(ai.state, core.Completed) {
			return true
		}
	}
	return false
}

// evalGuardLocked evaluates a guard predicate against the live context.
// The outcome is captured into the operation's pending guard buffer so
// its journal record can carry it; during replay the recorded outcomes
// are consumed instead of re-evaluating, which keeps replay independent
// of context writes that raced the original operation.
func (e *Engine) evalGuardLocked(p *pending, pi *ProcessInstance, g *core.Guard) (bool, error) {
	if p.src != nil && len(p.src.guards) > 0 {
		ok := p.src.guards[0]
		p.src.guards = p.src.guards[1:]
		return ok, nil
	}
	ctxID, ok := pi.ctxIDs[g.ContextVar]
	if !ok {
		return false, fmt.Errorf("enact: guard references unbound context variable %q", g.ContextVar)
	}
	val, _ := e.contexts.Field(ctxID, g.Field)
	res, err := compareValues(val, g.Value, g.Op)
	if err != nil {
		return false, err
	}
	p.guards = append(p.guards, res)
	return res, nil
}

// compareValues compares two field values under op. Integer-like values
// (including time.Time, via Unix seconds) compare numerically; strings
// compare lexically; booleans support == and != only.
func compareValues(a, b any, op string) (bool, error) {
	if ai, ok := event.AsInt64(a); ok {
		bi, ok := event.AsInt64(b)
		if !ok {
			return false, fmt.Errorf("enact: cannot compare %T with %T", a, b)
		}
		return compareOrdered(ai, bi, op)
	}
	if as, ok := a.(string); ok {
		bs, ok := b.(string)
		if !ok {
			return false, fmt.Errorf("enact: cannot compare %T with %T", a, b)
		}
		return compareOrdered(as, bs, op)
	}
	if ab, ok := a.(bool); ok {
		bb, ok := b.(bool)
		if !ok {
			return false, fmt.Errorf("enact: cannot compare %T with %T", a, b)
		}
		switch op {
		case "==":
			return ab == bb, nil
		case "!=":
			return ab != bb, nil
		}
		return false, fmt.Errorf("enact: operator %q not defined on bool", op)
	}
	if a == nil {
		switch op {
		case "==":
			return b == nil, nil
		case "!=":
			return b != nil, nil
		}
		return false, nil
	}
	return false, fmt.Errorf("enact: cannot compare values of type %T", a)
}

func compareOrdered[T int64 | string](a, b T, op string) (bool, error) {
	switch op {
	case "==":
		return a == b, nil
	case "!=":
		return a != b, nil
	case "<":
		return a < b, nil
	case "<=":
		return a <= b, nil
	case ">":
		return a > b, nil
	case ">=":
		return a >= b, nil
	}
	return false, fmt.Errorf("enact: unknown comparison operator %q", op)
}

// checkProcessCompletionLocked auto-completes the process when every
// non-optional, non-cancelled activity variable has a Completed instance
// and no instance of any variable is still active. Leftover Ready
// instances of optional variables are terminated as part of completion.
func (e *Engine) checkProcessCompletionLocked(p *pending, pi *ProcessInstance, user string) error {
	if !isActive(pi.schema.States(), pi.state) {
		return nil
	}
	acts := pi.allActivityVars()
	if len(acts) == 0 {
		return nil
	}
	var leftoverReady []*ActivityInstance
	for _, av := range acts {
		required := !av.Optional && !pi.cancelled[av.Name]
		if required && !e.varCompletedLocked(pi, av.Name) {
			return nil
		}
		for _, ai := range pi.acts[av.Name] {
			if !isActive(ai.schema.States(), ai.state) {
				continue
			}
			if ai.schema.States().IsSubstateOf(ai.state, core.Ready) && (av.Optional || e.varCompletedLocked(pi, av.Name)) {
				leftoverReady = append(leftoverReady, ai)
				continue
			}
			return nil // active required work remains
		}
	}
	for _, ai := range leftoverReady {
		if err := e.transitionActivityLocked(p, ai, core.Terminated, user); err != nil {
			return err
		}
	}
	return e.closeProcessLocked(p, pi, core.Completed, user)
}

// closeProcessLocked transitions the process instance to a closed state,
// retires the contexts it owns (scoped roles disappear with them), and
// cascades to the invoking activity's process.
func (e *Engine) closeProcessLocked(p *pending, pi *ProcessInstance, intent core.State, user string) error {
	if err := e.transitionProcessLocked(p, pi, e.defaultTarget(pi.schema.States(), pi.state, intent), user); err != nil {
		return err
	}
	// Contexts owned by the closing process retire only after the close
	// events have been flushed to the observers (see pending).
	p.retire = append(p.retire, pi.ownedCtxs...)
	if pi.parentProc == nil {
		return nil
	}
	// The invoking activity instance shares our id; synchronize its
	// state and continue coordination in the parent (same family, so the
	// stripe lock we hold covers it).
	parentAct, ok := e.act(pi.id)
	if !ok {
		return nil
	}
	e.setActState(parentAct, pi.state) // keep the shared identity consistent; no duplicate event
	if intent == core.Completed {
		if err := e.fireDependenciesLocked(p, pi.parentProc, pi.parentVar, user); err != nil {
			return err
		}
	}
	return e.checkProcessCompletionLocked(p, pi.parentProc, user)
}

// terminateProcessLocked terminates every active activity of the process
// (recursively through running subprocesses) and closes it as Terminated.
func (e *Engine) terminateProcessLocked(p *pending, pi *ProcessInstance, user string) error {
	for _, av := range pi.allActivityVars() {
		for _, ai := range pi.acts[av.Name] {
			if !isActive(ai.schema.States(), ai.state) {
				continue
			}
			if ai.child != nil && isActive(ai.child.schema.States(), ai.child.state) {
				if err := e.terminateProcessLocked(p, ai.child, user); err != nil {
					return err
				}
				continue
			}
			if err := e.transitionActivityLocked(p, ai, core.Terminated, user); err != nil {
				return err
			}
		}
	}
	return e.closeProcessLocked(p, pi, core.Terminated, user)
}

// TerminateProcess terminates a process instance and everything active
// inside it.
func (e *Engine) TerminateProcess(processID, user string) error {
	return e.terminateProcess(processID, user, nil)
}

func (e *Engine) terminateProcess(processID, user string, src *replaySrc) error {
	return e.runProc(processID, &walRecord{Kind: walTerminateProcess, Proc: processID, User: user}, src, func(p *pending) error {
		pi, ok := e.proc(processID)
		if !ok {
			return fmt.Errorf("enact: unknown process instance %q: %w", processID, core.ErrNotFound)
		}
		if !isActive(pi.schema.States(), pi.state) {
			return fmt.Errorf("enact: process %s is already closed", processID)
		}
		return e.terminateProcessLocked(p, pi, user)
	})
}
