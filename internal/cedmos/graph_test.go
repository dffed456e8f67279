package cedmos

import (
	"strings"
	"testing"

	"github.com/mcc-cmi/cmi/internal/event"
	"github.com/mcc-cmi/cmi/internal/vclock"
)

// echoOp forwards every input to its output, optionally tagging it.
type echoOp struct {
	name string
	in   event.Type
	out  event.Type
	tag  string
}

func (e *echoOp) Name() string             { return e.name }
func (e *echoOp) InputTypes() []event.Type { return []event.Type{e.in} }
func (e *echoOp) OutputType() event.Type   { return e.out }
func (e *echoOp) Reset()                   {}
func (e *echoOp) Consume(slot int, ev event.Event, emit func(event.Event)) {
	out := ev
	out.Type = e.out
	if e.tag != "" {
		out = out.With("tag", e.tag)
	}
	emit(out)
}

// pairOp emits once it has seen one event on each of its two slots, then
// resets.
type pairOp struct {
	name string
	typ  event.Type
	seen [2]bool
}

func (p *pairOp) Name() string             { return p.name }
func (p *pairOp) InputTypes() []event.Type { return []event.Type{p.typ, p.typ} }
func (p *pairOp) OutputType() event.Type   { return p.typ }
func (p *pairOp) Reset()                   { p.seen = [2]bool{} }
func (p *pairOp) Consume(slot int, ev event.Event, emit func(event.Event)) {
	p.seen[slot] = true
	if p.seen[0] && p.seen[1] {
		p.seen = [2]bool{}
		emit(ev.With("paired", true))
	}
}

const tA event.Type = "test.A"
const tB event.Type = "test.B"

func mkEvent(t event.Type) event.Event {
	return event.New(t, vclock.NewVirtual().Next(), "test", event.Params{})
}

func collect(dst *[]event.Event) event.Consumer {
	return event.ConsumerFunc(func(e event.Event) { *dst = append(*dst, e) })
}

func TestLinearPipeline(t *testing.T) {
	g := NewGraph("linear")
	src := g.AddSource("a", tA)
	n1 := g.AddNode(&echoOp{name: "e1", in: tA, out: tB, tag: "first"})
	n2 := g.AddNode(&echoOp{name: "e2", in: tB, out: tB, tag: "second"})
	if err := g.ConnectSource(src, n1, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect(n1, n2, 0); err != nil {
		t.Fatal(err)
	}
	var out []event.Event
	if err := g.Tap(n2, collect(&out)); err != nil {
		t.Fatal(err)
	}
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	if err := g.Inject(src, mkEvent(tA)); err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("out = %d events", len(out))
	}
	if out[0].String("tag") != "second" {
		t.Fatalf("tag = %q", out[0].String("tag"))
	}
	roots := g.Roots()
	if len(roots) != 1 || roots[0] != n2 {
		t.Fatalf("roots = %v", roots)
	}
}

func TestSharedProducerFansOut(t *testing.T) {
	// One source feeding both slots of a pair operator, plus a shared
	// echo — interior nodes and leaves may be shared among schemas
	// (Section 6.2).
	g := NewGraph("fan")
	src := g.AddSource("a", tA)
	pair := g.AddNode(&pairOp{name: "pair", typ: tA})
	echo := g.AddNode(&echoOp{name: "echo", in: tA, out: tA})
	if err := g.ConnectSource(src, pair, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.ConnectSource(src, pair, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.ConnectSource(src, echo, 0); err != nil {
		t.Fatal(err)
	}
	var pairOut, echoOut []event.Event
	if err := g.Tap(pair, collect(&pairOut)); err != nil {
		t.Fatal(err)
	}
	if err := g.Tap(echo, collect(&echoOut)); err != nil {
		t.Fatal(err)
	}
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	if err := g.Inject(src, mkEvent(tA)); err != nil {
		t.Fatal(err)
	}
	// The single event reaches both pair slots, so the pair fires once.
	if len(pairOut) != 1 {
		t.Fatalf("pair fired %d times", len(pairOut))
	}
	if len(echoOut) != 1 {
		t.Fatalf("echo fired %d times", len(echoOut))
	}
	if len(g.Roots()) != 2 {
		t.Fatalf("roots = %v, want multi-rooted DAG", g.Roots())
	}
}

func TestTypeMismatchRejected(t *testing.T) {
	g := NewGraph("types")
	src := g.AddSource("a", tA)
	n := g.AddNode(&echoOp{name: "wantsB", in: tB, out: tB})
	if err := g.ConnectSource(src, n, 0); err == nil {
		t.Fatal("type mismatch accepted")
	}
	n2 := g.AddNode(&echoOp{name: "emitsA", in: tB, out: tA})
	if err := g.Connect(n2, n, 0); err == nil {
		t.Fatal("operator type mismatch accepted")
	}
}

func TestSlotValidation(t *testing.T) {
	g := NewGraph("slots")
	src := g.AddSource("a", tA)
	n := g.AddNode(&echoOp{name: "e", in: tA, out: tA})
	if err := g.ConnectSource(src, n, 5); err == nil {
		t.Fatal("out-of-range slot accepted")
	}
	if err := g.ConnectSource(src, n, -1); err == nil {
		t.Fatal("negative slot accepted")
	}
	if err := g.ConnectSource(src, n, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.ConnectSource(src, n, 0); err == nil {
		t.Fatal("double producer on one slot accepted")
	}
	if err := g.ConnectSource(SourceID(9), n, 0); err == nil {
		t.Fatal("unknown source accepted")
	}
	if err := g.ConnectSource(src, NodeID(9), 0); err == nil {
		t.Fatal("unknown node accepted")
	}
	if err := g.Connect(NodeID(9), n, 0); err == nil {
		t.Fatal("unknown producer accepted")
	}
	if err := g.Connect(n, n, 0); err == nil {
		t.Fatal("self loop accepted")
	}
	if err := g.Tap(NodeID(9), collect(&[]event.Event{})); err == nil {
		t.Fatal("tap on unknown node accepted")
	}
}

func TestFinalizeRequiresFilledSlots(t *testing.T) {
	g := NewGraph("unfilled")
	g.AddSource("a", tA)
	g.AddNode(&pairOp{name: "pair", typ: tA})
	err := g.Finalize()
	if err == nil || !strings.Contains(err.Error(), "no producer") {
		t.Fatalf("Finalize = %v", err)
	}
}

func TestFinalizeDetectsCycle(t *testing.T) {
	g := NewGraph("cycle")
	src := g.AddSource("a", tA)
	n1 := g.AddNode(&pairOp{name: "p1", typ: tA})
	n2 := g.AddNode(&echoOp{name: "e", in: tA, out: tA})
	if err := g.ConnectSource(src, n1, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect(n1, n2, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect(n2, n1, 1); err != nil {
		t.Fatal(err)
	}
	err := g.Finalize()
	if err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("Finalize = %v", err)
	}
}

func TestFinalizeDetectsUnreachable(t *testing.T) {
	g := NewGraph("unreachable")
	src := g.AddSource("a", tA)
	n1 := g.AddNode(&echoOp{name: "ok", in: tA, out: tA})
	if err := g.ConnectSource(src, n1, 0); err != nil {
		t.Fatal(err)
	}
	orphanProducer := g.AddNode(&echoOp{name: "orphanP", in: tA, out: tA})
	orphan := g.AddNode(&echoOp{name: "orphan", in: tA, out: tA})
	if err := g.Connect(orphanProducer, orphan, 0); err != nil {
		t.Fatal(err)
	}
	// orphanProducer's own input is unfilled; fill it from the orphan
	// side to isolate the reachability error... it cannot be filled
	// without a source, so expect either error; assert Finalize fails.
	if err := g.Finalize(); err == nil {
		t.Fatal("unreachable subgraph accepted")
	}
}

func TestInjectValidation(t *testing.T) {
	g := NewGraph("inject")
	src := g.AddSource("a", tA)
	n := g.AddNode(&echoOp{name: "e", in: tA, out: tA})
	if err := g.ConnectSource(src, n, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.Inject(src, mkEvent(tA)); err == nil {
		t.Fatal("inject before finalize accepted")
	}
	if _, err := g.InjectEvent(mkEvent(tA)); err == nil {
		t.Fatal("InjectEvent before finalize accepted")
	}
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	if err := g.Finalize(); err == nil {
		t.Fatal("double finalize accepted")
	}
	if err := g.Inject(src, mkEvent(tB)); err == nil {
		t.Fatal("wrong-type inject accepted")
	}
	if err := g.Inject(SourceID(4), mkEvent(tA)); err == nil {
		t.Fatal("unknown source inject accepted")
	}
	if err := g.ConnectSource(src, n, 0); err == nil {
		t.Fatal("connect after finalize accepted")
	}
}

func TestInjectEventRoutesByType(t *testing.T) {
	g := NewGraph("route")
	srcA := g.AddSource("a", tA)
	srcB := g.AddSource("b", tB)
	nA := g.AddNode(&echoOp{name: "ea", in: tA, out: tA})
	nB := g.AddNode(&echoOp{name: "eb", in: tB, out: tB})
	if err := g.ConnectSource(srcA, nA, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.ConnectSource(srcB, nB, 0); err != nil {
		t.Fatal(err)
	}
	var outA, outB []event.Event
	_ = g.Tap(nA, collect(&outA))
	_ = g.Tap(nB, collect(&outB))
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	fed, err := g.InjectEvent(mkEvent(tA))
	if err != nil || fed != 1 {
		t.Fatalf("InjectEvent = %d, %v", fed, err)
	}
	fed, err = g.InjectEvent(mkEvent(event.Type("test.unknown")))
	if err != nil || fed != 0 {
		t.Fatalf("unknown type fed %d sources", fed)
	}
	if len(outA) != 1 || len(outB) != 0 {
		t.Fatalf("routing wrong: A=%d B=%d", len(outA), len(outB))
	}
}

func TestStatsAndReset(t *testing.T) {
	g := NewGraph("stats")
	src := g.AddSource("a", tA)
	pair := g.AddNode(&pairOp{name: "pair", typ: tA})
	if err := g.ConnectSource(src, pair, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.ConnectSource(src, pair, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := g.Inject(src, mkEvent(tA)); err != nil {
			t.Fatal(err)
		}
	}
	stats := g.Stats()
	if len(stats) != 1 || stats[0].Name != "pair" {
		t.Fatalf("stats = %v", stats)
	}
	// Each inject feeds both slots: 6 consumed, 3 emitted.
	if stats[0].Consumed != 6 || stats[0].Emitted != 3 {
		t.Fatalf("stats = %+v", stats[0])
	}
	g.Reset()
	stats = g.Stats()
	if stats[0].Consumed != 0 || stats[0].Emitted != 0 {
		t.Fatalf("stats after reset = %+v", stats[0])
	}
	if g.NumNodes() != 1 || g.NumSources() != 1 {
		t.Fatalf("NumNodes/NumSources = %d/%d", g.NumNodes(), g.NumSources())
	}
	if g.Name() != "stats" {
		t.Fatalf("Name = %q", g.Name())
	}
}

func TestDiamondDeliversOncePerPath(t *testing.T) {
	// src -> e1 -> join(slot0), src -> e2 -> join(slot1): a diamond.
	g := NewGraph("diamond")
	src := g.AddSource("a", tA)
	e1 := g.AddNode(&echoOp{name: "e1", in: tA, out: tA})
	e2 := g.AddNode(&echoOp{name: "e2", in: tA, out: tA})
	join := g.AddNode(&pairOp{name: "join", typ: tA})
	for _, c := range []struct {
		n    NodeID
		slot int
	}{{e1, 0}, {e2, 0}} {
		if err := g.ConnectSource(src, c.n, c.slot); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Connect(e1, join, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect(e2, join, 1); err != nil {
		t.Fatal(err)
	}
	var out []event.Event
	_ = g.Tap(join, collect(&out))
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	if err := g.Inject(src, mkEvent(tA)); err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("diamond join fired %d times, want 1", len(out))
	}
}

func TestInjectEventUsesTypeIndex(t *testing.T) {
	g := NewGraph("idx")
	a1 := g.AddSource("a1", tA)
	a2 := g.AddSource("a2", tA)
	b1 := g.AddSource("b1", tB)
	na := g.AddNode(&pairOp{name: "pa", typ: tA})
	nb := g.AddNode(&echoOp{name: "eb", in: tB, out: tB})
	if err := g.ConnectSource(a1, na, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.ConnectSource(a2, na, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.ConnectSource(b1, nb, 0); err != nil {
		t.Fatal(err)
	}
	var outs []event.Event
	if err := g.Tap(nb, collect(&outs)); err != nil {
		t.Fatal(err)
	}
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	if fed, err := g.InjectEvent(mkEvent(tA)); err != nil || fed != 2 {
		t.Fatalf("tA fed %d sources (err %v), want 2", fed, err)
	}
	if fed, err := g.InjectEvent(mkEvent(tB)); err != nil || fed != 1 {
		t.Fatalf("tB fed %d sources (err %v), want 1", fed, err)
	}
	if fed, err := g.InjectEvent(mkEvent("test.unknown")); err != nil || fed != 0 {
		t.Fatalf("unknown type fed %d sources (err %v), want 0", fed, err)
	}
	if len(outs) != 1 {
		t.Fatalf("b outputs = %d, want 1", len(outs))
	}
}
