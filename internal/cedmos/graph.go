// Package cedmos is a general composite event detection engine, our
// from-scratch stand-in for MCC's CEDMOS system (Cassandra, Baker, Rashid:
// "CEDMOS: Complex Event Detection and Monitoring System", MCC TR
// CEDMOS-002-99), which the paper's Awareness Engine specializes
// (Section 6.1).
//
// A composite event specification is a rooted, directed acyclic graph
// whose leaves are primitive event producers (sources), whose non-leaves
// are event operator instances, and whose edges are typed event streams
// connecting producers to the consuming slots of operators (Section 5.1).
// Composite events output by a root are said to be detected by the
// specification. Following Section 6.2, a Graph may be multiply rooted:
// interior nodes and sources may be shared among several awareness
// schemas.
//
// Execution inside a Graph is synchronous and single-threaded: injecting
// an event pushes it depth-first through the DAG. The awareness engine
// serializes injection under its own lock, so one Graph is the paper's
// "detector agent" (Section 6.4) run in-line with event production.
package cedmos

import (
	"fmt"
	"sort"
	"sync/atomic"

	"github.com/mcc-cmi/cmi/internal/event"
)

// An Operator is a self-contained, reusable algorithm for recognizing
// instances of a pattern of constituent events and calculating the
// parameters of the resulting composite events (Section 5.1). An operator
// instance consumes events from a fixed number of typed input slots and
// produces a stream of events of its output type; it may produce any
// number of output events for a single input event.
//
// Operators are driven single-threaded by the owning Graph; they do not
// need internal locking.
type Operator interface {
	// Name identifies the operator instance for diagnostics.
	Name() string
	// InputTypes returns the expected event type of each input slot; the
	// slice's length is the operator's arity.
	InputTypes() []event.Type
	// OutputType returns the type of events the operator emits.
	OutputType() event.Type
	// Consume processes one event arriving on the given slot, calling
	// emit zero or more times with output events.
	Consume(slot int, ev event.Event, emit func(event.Event))
	// Reset discards all accumulated state.
	Reset()
}

// A SourceID identifies a primitive event producer (a leaf) in a Graph.
type SourceID int

// A NodeID identifies an operator instance in a Graph.
type NodeID int

type slotRef struct {
	node NodeID
	slot int
}

type source struct {
	name string
	typ  event.Type
	outs []slotRef
}

type node struct {
	op     Operator
	outs   []slotRef        // operator consumers
	taps   []event.Consumer // external consumers (detection outputs)
	filled []bool           // which input slots have a producer
	// consumed/emitted are atomic so Stats may be read while another
	// goroutine is injecting events.
	consumed atomic.Uint64 // events consumed (all slots)
	emitted  atomic.Uint64 // events emitted
}

// A Graph is one composite event specification under construction or in
// execution. Build it with AddSource/AddNode/ConnectSource/Connect/Tap,
// seal it with Finalize, then feed it with Inject. A Graph is not safe
// for concurrent use: callers serialize Inject/InjectEvent.
type Graph struct {
	name      string
	sources   []source
	nodes     []node
	byType    map[event.Type][]SourceID // type -> sources, built at Finalize
	finalized bool
}

// NewGraph returns an empty graph with the given diagnostic name.
func NewGraph(name string) *Graph {
	return &Graph{name: name}
}

// Name returns the graph's diagnostic name.
func (g *Graph) Name() string { return g.name }

// AddSource declares a primitive event producer of the given type.
func (g *Graph) AddSource(name string, typ event.Type) SourceID {
	g.sources = append(g.sources, source{name: name, typ: typ})
	return SourceID(len(g.sources) - 1)
}

// AddNode adds an operator instance.
func (g *Graph) AddNode(op Operator) NodeID {
	g.nodes = append(g.nodes, node{op: op, filled: make([]bool, len(op.InputTypes()))})
	return NodeID(len(g.nodes) - 1)
}

// ConnectSource wires a source to an input slot of an operator instance.
// The source's type must conform to the slot's declared type.
func (g *Graph) ConnectSource(src SourceID, dst NodeID, slot int) error {
	if g.finalized {
		return fmt.Errorf("cedmos: graph %q already finalized", g.name)
	}
	if int(src) < 0 || int(src) >= len(g.sources) {
		return fmt.Errorf("cedmos: unknown source %d", src)
	}
	if err := g.checkSlot(dst, slot, g.sources[src].typ); err != nil {
		return err
	}
	g.sources[src].outs = append(g.sources[src].outs, slotRef{node: dst, slot: slot})
	g.nodes[dst].filled[slot] = true
	return nil
}

// Connect wires the output of one operator instance to an input slot of
// another.
func (g *Graph) Connect(producer NodeID, dst NodeID, slot int) error {
	if g.finalized {
		return fmt.Errorf("cedmos: graph %q already finalized", g.name)
	}
	if int(producer) < 0 || int(producer) >= len(g.nodes) {
		return fmt.Errorf("cedmos: unknown producer node %d", producer)
	}
	if producer == dst {
		return fmt.Errorf("cedmos: node %q cannot consume its own output", g.nodes[producer].op.Name())
	}
	if err := g.checkSlot(dst, slot, g.nodes[producer].op.OutputType()); err != nil {
		return err
	}
	g.nodes[producer].outs = append(g.nodes[producer].outs, slotRef{node: dst, slot: slot})
	g.nodes[dst].filled[slot] = true
	return nil
}

func (g *Graph) checkSlot(dst NodeID, slot int, produced event.Type) error {
	if int(dst) < 0 || int(dst) >= len(g.nodes) {
		return fmt.Errorf("cedmos: unknown node %d", dst)
	}
	n := &g.nodes[dst]
	types := n.op.InputTypes()
	if slot < 0 || slot >= len(types) {
		return fmt.Errorf("cedmos: node %q has no input slot %d (arity %d)", n.op.Name(), slot, len(types))
	}
	if n.filled[slot] {
		return fmt.Errorf("cedmos: node %q slot %d already has a producer", n.op.Name(), slot)
	}
	if types[slot] != produced {
		return fmt.Errorf("cedmos: node %q slot %d expects %q, producer emits %q",
			n.op.Name(), slot, types[slot], produced)
	}
	return nil
}

// Tap registers an external consumer for the output of a node. Taps are
// how detected composite events leave the graph; the root of each
// awareness schema is tapped by the awareness engine.
func (g *Graph) Tap(n NodeID, c event.Consumer) error {
	if int(n) < 0 || int(n) >= len(g.nodes) {
		return fmt.Errorf("cedmos: unknown node %d", n)
	}
	g.nodes[n].taps = append(g.nodes[n].taps, c)
	return nil
}

// Finalize validates the specification: every input slot of every node has
// exactly one producer, the operator edges form a DAG, and every node is
// reachable from some source. After Finalize the graph accepts events.
func (g *Graph) Finalize() error {
	if g.finalized {
		return fmt.Errorf("cedmos: graph %q already finalized", g.name)
	}
	for i := range g.nodes {
		n := &g.nodes[i]
		for slot, ok := range n.filled {
			if !ok {
				return fmt.Errorf("cedmos: graph %q: node %q input slot %d has no producer", g.name, n.op.Name(), slot)
			}
		}
	}
	if err := g.checkAcyclic(); err != nil {
		return err
	}
	if err := g.checkReachable(); err != nil {
		return err
	}
	// Index sources by event type so InjectEvent routes in O(matching
	// sources) instead of scanning every source on every event.
	g.byType = make(map[event.Type][]SourceID, len(g.sources))
	for i := range g.sources {
		g.byType[g.sources[i].typ] = append(g.byType[g.sources[i].typ], SourceID(i))
	}
	g.finalized = true
	return nil
}

func (g *Graph) checkAcyclic() error {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]int, len(g.nodes))
	var visit func(NodeID) error
	visit = func(id NodeID) error {
		color[id] = gray
		for _, out := range g.nodes[id].outs {
			switch color[out.node] {
			case gray:
				return fmt.Errorf("cedmos: graph %q has a cycle through node %q", g.name, g.nodes[out.node].op.Name())
			case white:
				if err := visit(out.node); err != nil {
					return err
				}
			}
		}
		color[id] = black
		return nil
	}
	for i := range g.nodes {
		if color[i] == white {
			if err := visit(NodeID(i)); err != nil {
				return err
			}
		}
	}
	return nil
}

func (g *Graph) checkReachable() error {
	reached := make([]bool, len(g.nodes))
	var mark func(NodeID)
	mark = func(id NodeID) {
		if reached[id] {
			return
		}
		reached[id] = true
		for _, out := range g.nodes[id].outs {
			mark(out.node)
		}
	}
	for _, s := range g.sources {
		for _, out := range s.outs {
			mark(out.node)
		}
	}
	for i, ok := range reached {
		if !ok {
			return fmt.Errorf("cedmos: graph %q: node %q is not reachable from any source", g.name, g.nodes[i].op.Name())
		}
	}
	return nil
}

// Inject delivers a primitive event to the named source and propagates it
// through the graph synchronously. The event's type must match the
// source's type.
func (g *Graph) Inject(src SourceID, ev event.Event) error {
	if !g.finalized {
		return fmt.Errorf("cedmos: graph %q not finalized", g.name)
	}
	if int(src) < 0 || int(src) >= len(g.sources) {
		return fmt.Errorf("cedmos: unknown source %d", src)
	}
	s := &g.sources[src]
	if ev.Type != s.typ {
		return fmt.Errorf("cedmos: source %q expects %q, got %q", s.name, s.typ, ev.Type)
	}
	for _, out := range s.outs {
		g.deliver(out, ev)
	}
	return nil
}

// InjectEvent delivers the event to every source whose type matches the
// event's type, routing through the type index built at Finalize. It
// returns the number of sources fed.
func (g *Graph) InjectEvent(ev event.Event) (int, error) {
	if !g.finalized {
		return 0, fmt.Errorf("cedmos: graph %q not finalized", g.name)
	}
	matched := g.byType[ev.Type]
	for _, src := range matched {
		for _, out := range g.sources[src].outs {
			g.deliver(out, ev)
		}
	}
	return len(matched), nil
}

func (g *Graph) deliver(ref slotRef, ev event.Event) {
	n := &g.nodes[ref.node]
	n.consumed.Add(1)
	n.op.Consume(ref.slot, ev, func(out event.Event) {
		n.emitted.Add(1)
		for _, tap := range n.taps {
			tap.Consume(out)
		}
		for _, next := range n.outs {
			g.deliver(next, out)
		}
	})
}

// Reset clears the state of every operator instance, leaving the wiring
// intact.
func (g *Graph) Reset() {
	for i := range g.nodes {
		g.nodes[i].op.Reset()
		g.nodes[i].consumed.Store(0)
		g.nodes[i].emitted.Store(0)
	}
}

// Roots returns the ids of the nodes whose output feeds no other operator
// — the roots of the (possibly multi-rooted) specification DAG.
func (g *Graph) Roots() []NodeID {
	var out []NodeID
	for i := range g.nodes {
		if len(g.nodes[i].outs) == 0 {
			out = append(out, NodeID(i))
		}
	}
	return out
}

// NodeStats reports per-node consumed/emitted counters.
type NodeStats struct {
	Name     string
	Consumed uint64
	Emitted  uint64
}

// Stats returns per-node counters sorted by node name. The counters are
// atomic, so Stats is safe to call while another goroutine is injecting
// events into the graph.
func (g *Graph) Stats() []NodeStats {
	out := make([]NodeStats, 0, len(g.nodes))
	for i := range g.nodes {
		out = append(out, NodeStats{
			Name:     g.nodes[i].op.Name(),
			Consumed: g.nodes[i].consumed.Load(),
			Emitted:  g.nodes[i].emitted.Load(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// NumNodes returns the number of operator instances in the graph.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumSources returns the number of primitive event producers.
func (g *Graph) NumSources() int { return len(g.sources) }
