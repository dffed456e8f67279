// Package obs is the CMI observability substrate: a dependency-free
// metrics registry with atomic counters, gauges and fixed-bucket latency
// histograms, exposed in the Prometheus text format (version 0.0.4).
//
// The paper's whole premise is awareness of process enactment (Sections
// 5-6.5); this package gives the system awareness of itself. Every engine
// layer records into a Registry owned by the System facade, and the
// federation server serves the exposition at GET /api/metrics.
//
// Design constraints, in order:
//
//  1. Hot-path recording must be allocation-free: Counter.Add, Gauge.Set
//     and Histogram.Observe are single atomic operations (a histogram
//     adds one bucket scan over a small fixed array). Instrument methods
//     are nil-safe so un-instrumented engines pay one nil check.
//  2. No third-party modules; exposition is written by hand.
//  3. Registration is idempotent per (name, labels) so layers can be
//     re-instrumented (e.g. awareness Start after Stop) without duplicate
//     series. Instrument series return the original instrument; sampled
//     series (CounterFunc/GaugeFunc) replace their callback so the series
//     always reflects the live instance.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// A Label is one key="value" pair attached to a metric series.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// metricKind orders families in the exposition and selects the TYPE line.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// A Counter is a monotonically increasing value.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one. Safe on a nil counter (no-op), so un-instrumented code
// paths need no branching at the call site.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// A Gauge is a value that can go up and down. It stores float64 bits
// atomically so Set is one store and exposition needs no lock.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value. Nil-safe.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adjusts the gauge by delta (compare-and-swap loop). Nil-safe.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current gauge value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// DefBuckets are the default latency histogram bucket upper bounds:
// 50µs .. ~3.3s in powers of four, suiting both in-memory detection
// (microseconds) and remote delivery pushes (milliseconds and up).
var DefBuckets = []time.Duration{
	50 * time.Microsecond,
	200 * time.Microsecond,
	800 * time.Microsecond,
	3200 * time.Microsecond,
	12800 * time.Microsecond,
	51200 * time.Microsecond,
	204800 * time.Microsecond,
	819200 * time.Microsecond,
	3276800 * time.Microsecond,
}

// A Histogram is a fixed-bucket latency histogram. Observe is
// allocation-free: one linear scan of the (small, fixed) bound slice and
// three atomic adds. Buckets are cumulative at exposition time, per the
// Prometheus convention.
type Histogram struct {
	bounds   []time.Duration // sorted upper bounds; +Inf is implicit
	counts   []atomic.Uint64 // len(bounds)+1; last is the overflow bucket
	sumNanos atomic.Int64
	count    atomic.Uint64
}

// Observe records one duration. Nil-safe. Negative durations clamp to 0.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	i := 0
	for i < len(h.bounds) && d > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sumNanos.Add(int64(d))
	h.count.Add(1)
}

// Count returns how many observations were recorded.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the total of all observations.
func (h *Histogram) Sum() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.sumNanos.Load())
}

// SizeBuckets are the default bucket upper bounds for count-valued
// histograms (batch sizes, fan-out widths): powers of two from 1 to 128.
var SizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128}

// A ValueHistogram is a fixed-bucket histogram over unitless float64
// values — batch sizes, queue lengths — what Histogram is for
// durations. Observe is allocation-free: one scan of the fixed bound
// slice and three atomic operations.
type ValueHistogram struct {
	bounds  []float64       // sorted upper bounds; +Inf is implicit
	counts  []atomic.Uint64 // len(bounds)+1; last is the overflow bucket
	sumBits atomic.Uint64
	count   atomic.Uint64
}

// Observe records one value. Nil-safe.
func (h *ValueHistogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			break
		}
	}
	h.count.Add(1)
}

// Count returns how many observations were recorded.
func (h *ValueHistogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the total of all observations.
func (h *ValueHistogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// series is one registered metric series: a live instrument or a sampled
// callback, under one family.
type series struct {
	labels []Label
	// exactly one of the following is set
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	vhist   *ValueHistogram
	// sample holds a CounterFunc / GaugeFunc callback. It is atomic
	// because re-registration replaces the callback (a layer rebuilt
	// after a Stop/Start cycle must not leave the series sampling dead
	// objects) while WriteTo reads it without the registry lock.
	sample atomic.Pointer[func() float64]
}

// family groups all series sharing a metric name.
type family struct {
	name string
	help string
	kind metricKind
	// ordered by registration; key -> index for idempotent lookup
	series []*series
	byKey  map[string]int
}

// A Registry holds metric families and renders the Prometheus text
// exposition. It is safe for concurrent use; the zero value is not usable,
// call NewRegistry.
type Registry struct {
	mu       sync.RWMutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	for _, l := range labels {
		b.WriteString(l.Key)
		b.WriteByte('\x00')
		b.WriteString(l.Value)
		b.WriteByte('\x00')
	}
	return b.String()
}

// familyLocked finds or creates the named family, checking kind agreement.
func (r *Registry) familyLocked(name, help string, kind metricKind) *family {
	if f, ok := r.byName[name]; ok {
		if f.kind != kind {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s, was %s", name, kind, f.kind))
		}
		return f
	}
	f := &family{name: name, help: help, kind: kind, byKey: make(map[string]int)}
	r.byName[name] = f
	r.families = append(r.families, f)
	return f
}

// lookup is the read-locked fast path of register: callers that re-request
// an existing series (e.g. per-request HTTP instruments) don't serialize
// on the exclusive lock.
func (r *Registry) lookup(name string, kind metricKind, key string) (*series, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	f, ok := r.byName[name]
	if !ok || f.kind != kind {
		return nil, false
	}
	i, ok := f.byKey[key]
	if !ok {
		return nil, false
	}
	return f.series[i], true
}

// register adds (or returns the existing) series under the family.
func (r *Registry) register(name, help string, kind metricKind, labels []Label, make func() *series) *series {
	if r == nil {
		return nil
	}
	key := labelKey(labels)
	if s, ok := r.lookup(name, kind, key); ok {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyLocked(name, help, kind)
	if i, ok := f.byKey[key]; ok {
		return f.series[i]
	}
	s := make()
	s.labels = labels
	f.byKey[key] = len(f.series)
	f.series = append(f.series, s)
	return s
}

// registerSample registers a sampled series. Unlike instrument series,
// re-registering an existing sampled series replaces its callback: the
// sampled object may have been rebuilt (e.g. a detection graph recompiled
// by an awareness engine restart), and the old closure would otherwise keep
// sampling the dead instance forever.
func (r *Registry) registerSample(name, help string, kind metricKind, labels []Label, fn func() float64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyLocked(name, help, kind)
	key := labelKey(labels)
	if i, ok := f.byKey[key]; ok {
		s := f.series[i]
		if s.counter == nil && s.gauge == nil && s.hist == nil && s.vhist == nil {
			s.sample.Store(&fn)
		}
		return
	}
	s := &series{labels: labels}
	s.sample.Store(&fn)
	f.byKey[key] = len(f.series)
	f.series = append(f.series, s)
}

// Counter registers (idempotently) and returns a counter series. A nil
// registry returns a nil Counter whose methods are no-ops.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	s := r.register(name, help, kindCounter, labels, func() *series { return &series{counter: &Counter{}} })
	if s == nil {
		return nil
	}
	return s.counter
}

// Gauge registers (idempotently) and returns a gauge series.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	s := r.register(name, help, kindGauge, labels, func() *series { return &series{gauge: &Gauge{}} })
	if s == nil {
		return nil
	}
	return s.gauge
}

// Histogram registers (idempotently) and returns a histogram series over
// the given bucket bounds (DefBuckets when nil).
func (r *Registry) Histogram(name, help string, buckets []time.Duration, labels ...Label) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	s := r.register(name, help, kindHistogram, labels, func() *series {
		return &series{hist: &Histogram{bounds: buckets, counts: make([]atomic.Uint64, len(buckets)+1)}}
	})
	if s == nil {
		return nil
	}
	return s.hist
}

// ValueHistogram registers (idempotently) and returns a unitless
// histogram series over the given bucket bounds (SizeBuckets when nil).
// It shares the histogram family kind, so a name must not mix duration
// and value histograms.
func (r *Registry) ValueHistogram(name, help string, buckets []float64, labels ...Label) *ValueHistogram {
	if buckets == nil {
		buckets = SizeBuckets
	}
	s := r.register(name, help, kindHistogram, labels, func() *series {
		return &series{vhist: &ValueHistogram{bounds: buckets, counts: make([]atomic.Uint64, len(buckets)+1)}}
	})
	if s == nil {
		return nil
	}
	return s.vhist
}

// CounterFunc registers a counter series sampled by fn at exposition
// time — for values another component already counts atomically (e.g.
// graph node counters), so the hot path pays nothing extra.
// Re-registering an existing sampled series replaces its callback, so a
// rebuilt layer takes over the series instead of leaving it sampling the
// old instance.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	r.registerSample(name, help, kindCounter, labels, fn)
}

// GaugeFunc registers a gauge series sampled by fn at exposition time —
// for instantaneous values like queue depths. fn must not call back into
// this registry. Re-registration replaces the callback, as with
// CounterFunc.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.registerSample(name, help, kindGauge, labels, fn)
}

// A CounterVec is a family of counters distinguished by one variable
// label (plus fixed base labels), e.g. transitions by target state. With
// is a read-locked map hit on the fast path.
type CounterVec struct {
	r      *Registry
	name   string
	help   string
	varKey string
	base   []Label

	mu sync.RWMutex
	m  map[string]*Counter
}

// CounterVec registers a counter family keyed by varKey.
func (r *Registry) CounterVec(name, help, varKey string, base ...Label) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{r: r, name: name, help: help, varKey: varKey, base: base, m: make(map[string]*Counter)}
}

// With returns the counter for one value of the variable label, creating
// the series on first use. Nil-safe: a nil vec returns a nil (no-op)
// counter.
func (v *CounterVec) With(value string) *Counter {
	if v == nil {
		return nil
	}
	v.mu.RLock()
	c, ok := v.m[value]
	v.mu.RUnlock()
	if ok {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c, ok := v.m[value]; ok {
		return c
	}
	labels := append(append([]Label(nil), v.base...), Label{Key: v.varKey, Value: value})
	c = v.r.Counter(v.name, v.help, labels...)
	v.m[value] = c
	return c
}

// ---------------------------------------------------------------------
// Exposition.

func writeLabels(b *strings.Builder, labels []Label, extra ...Label) {
	all := labels
	if len(extra) > 0 {
		all = append(append([]Label(nil), labels...), extra...)
	}
	if len(all) == 0 {
		return
	}
	b.WriteByte('{')
	for i, l := range all {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return fmt.Sprintf("%d", int64(v))
	default:
		return fmt.Sprintf("%g", v)
	}
}

// famSnapshot is one family captured under the registry read lock, with
// its own copy of the series slice.
type famSnapshot struct {
	name   string
	help   string
	kind   metricKind
	series []*series
}

// WriteTo renders the Prometheus text exposition (families sorted by
// name, series in registration order) and implements io.WriterTo.
//
// Families AND their series slices are snapshotted under the read lock
// before rendering: register appends to family.series under the write
// lock, and series are created lazily at request time (HTTP instruments,
// CounterVec.With), so iterating the live slices unlocked would race a
// concurrent scrape against traffic. Rendering itself runs outside the
// lock because sample callbacks may take component locks that are also
// held while registering (lock-order inversion otherwise).
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	r.mu.RLock()
	fams := make([]famSnapshot, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, famSnapshot{
			name:   f.name,
			help:   f.help,
			kind:   f.kind,
			series: append([]*series(nil), f.series...),
		})
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var b strings.Builder
	for _, f := range fams {
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range f.series {
			switch {
			case s.hist != nil || s.vhist != nil:
				writeHistogram(&b, f.name, s)
			default:
				b.WriteString(f.name)
				writeLabels(&b, s.labels)
				b.WriteByte(' ')
				b.WriteString(formatFloat(seriesValue(s)))
				b.WriteByte('\n')
			}
		}
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

func seriesValue(s *series) float64 {
	switch {
	case s.counter != nil:
		return float64(s.counter.Value())
	case s.gauge != nil:
		return s.gauge.Value()
	}
	if fn := s.sample.Load(); fn != nil {
		return (*fn)()
	}
	return 0
}

func writeHistogram(b *strings.Builder, name string, s *series) {
	// Normalize either histogram flavor to float bounds + bucket counts:
	// duration histograms render bounds in seconds, value histograms
	// as-is. Counts are loaded once so the rendered buckets are
	// mutually consistent even under concurrent Observe calls.
	var (
		bounds []float64
		counts []uint64
		sum    float64
	)
	if h := s.hist; h != nil {
		bounds = make([]float64, len(h.bounds))
		for i, bd := range h.bounds {
			bounds[i] = bd.Seconds()
		}
		counts = make([]uint64, len(h.counts))
		for i := range h.counts {
			counts[i] = h.counts[i].Load()
		}
		sum = h.Sum().Seconds()
	} else {
		h := s.vhist
		bounds = h.bounds
		counts = make([]uint64, len(h.counts))
		for i := range h.counts {
			counts[i] = h.counts[i].Load()
		}
		sum = h.Sum()
	}
	var cum uint64
	for i, bound := range bounds {
		cum += counts[i]
		b.WriteString(name)
		b.WriteString("_bucket")
		writeLabels(b, s.labels, Label{Key: "le", Value: formatFloat(bound)})
		fmt.Fprintf(b, " %d\n", cum)
	}
	cum += counts[len(bounds)]
	b.WriteString(name)
	b.WriteString("_bucket")
	writeLabels(b, s.labels, Label{Key: "le", Value: "+Inf"})
	fmt.Fprintf(b, " %d\n", cum)
	b.WriteString(name)
	b.WriteString("_sum")
	writeLabels(b, s.labels)
	fmt.Fprintf(b, " %s\n", formatFloat(sum))
	b.WriteString(name)
	b.WriteString("_count")
	writeLabels(b, s.labels)
	fmt.Fprintf(b, " %d\n", cum)
}

// ServeHTTP serves the exposition with the text-format content type, so a
// Registry can be mounted directly on a mux.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = r.WriteTo(w)
}
