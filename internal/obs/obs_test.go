package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("cmi_test_total", "a counter")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d", c.Value())
	}
	// Idempotent registration returns the same instrument.
	if r.Counter("cmi_test_total", "a counter") != c {
		t.Fatal("re-registration returned a different counter")
	}
	g := r.Gauge("cmi_test_depth", "a gauge")
	g.Set(7)
	g.Inc()
	g.Dec()
	g.Add(-2)
	if g.Value() != 5 {
		t.Fatalf("gauge = %v", g.Value())
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x", "")
	c.Inc()
	c.Add(3)
	if c.Value() != 0 {
		t.Fatal("nil counter accumulated")
	}
	g := r.Gauge("y", "")
	g.Set(1)
	g.Add(2)
	if g.Value() != 0 {
		t.Fatal("nil gauge accumulated")
	}
	h := r.Histogram("z", "", nil)
	h.Observe(time.Second)
	if h.Count() != 0 {
		t.Fatal("nil histogram accumulated")
	}
	r.CounterFunc("f", "", func() float64 { return 1 })
	r.GaugeFunc("f2", "", func() float64 { return 1 })
	v := r.CounterVec("v", "", "k")
	v.With("a").Inc()
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("cmi_test_seconds", "latency", []time.Duration{time.Millisecond, 10 * time.Millisecond})
	h.Observe(500 * time.Microsecond) // bucket 0
	h.Observe(time.Millisecond)       // bucket 0 (le is inclusive)
	h.Observe(5 * time.Millisecond)   // bucket 1
	h.Observe(time.Second)            // +Inf
	h.Observe(-time.Second)           // clamps to 0, bucket 0
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`cmi_test_seconds_bucket{le="0.001"} 3`,
		`cmi_test_seconds_bucket{le="0.01"} 4`,
		`cmi_test_seconds_bucket{le="+Inf"} 5`,
		`cmi_test_seconds_count 5`,
		"# TYPE cmi_test_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestValueHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.ValueHistogram("cmi_test_batch_size", "batch sizes", nil) // SizeBuckets
	h.Observe(1)                                                     // bucket le=1
	h.Observe(2)                                                     // le=2 (inclusive)
	h.Observe(3)                                                     // le=4
	h.Observe(500)                                                   // +Inf
	if h.Count() != 4 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Sum() != 506 {
		t.Fatalf("sum = %v", h.Sum())
	}
	// Registering the same series again returns the original instrument.
	if again := r.ValueHistogram("cmi_test_batch_size", "batch sizes", nil); again != h {
		t.Fatal("re-registration returned a different instrument")
	}
	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE cmi_test_batch_size histogram",
		`cmi_test_batch_size_bucket{le="1"} 1`,
		`cmi_test_batch_size_bucket{le="2"} 2`,
		`cmi_test_batch_size_bucket{le="4"} 3`,
		`cmi_test_batch_size_bucket{le="128"} 3`,
		`cmi_test_batch_size_bucket{le="+Inf"} 4`,
		"cmi_test_batch_size_sum 506",
		"cmi_test_batch_size_count 4",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Nil-safety mirrors the other instruments.
	var nilH *ValueHistogram
	nilH.Observe(7)
	if nilH.Count() != 0 || nilH.Sum() != 0 {
		t.Fatal("nil ValueHistogram not inert")
	}
	var nilReg *Registry
	if got := nilReg.ValueHistogram("cmi_test_nil", "x", nil); got != nil {
		t.Fatal("nil registry returned a live instrument")
	}
}

func TestExpositionFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("cmi_b_total", "bees", L("kind", "worker")).Add(2)
	r.Counter("cmi_b_total", "bees", L("kind", "queen")).Add(1)
	r.Gauge("cmi_a_depth", "depth").Set(3)
	r.GaugeFunc("cmi_c_live", "sampled", func() float64 { return 9 })
	r.CounterVec("cmi_d_total", "vec", "state", L("layer", "enact")).With("Running").Add(6)

	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP cmi_b_total bees\n# TYPE cmi_b_total counter\n",
		`cmi_b_total{kind="worker"} 2`,
		`cmi_b_total{kind="queen"} 1`,
		"# TYPE cmi_a_depth gauge\ncmi_a_depth 3\n",
		"cmi_c_live 9",
		`cmi_d_total{layer="enact",state="Running"} 6`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Families are sorted by name.
	if strings.Index(out, "cmi_a_depth") > strings.Index(out, "cmi_b_total") {
		t.Fatalf("families not sorted:\n%s", out)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("cmi_e_total", "", L("route", `a"b\c`+"\n")).Inc()
	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `route="a\"b\\c\n"`) {
		t.Fatalf("label not escaped: %s", b.String())
	}
}

func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("cmi_conc_seconds", "", nil)
	v := r.CounterVec("cmi_conc_total", "", "s")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				h.Observe(time.Duration(j) * time.Microsecond)
				v.With([]string{"a", "b", "c"}[i%3]).Inc()
				r.Counter("cmi_conc2_total", "").Inc()
			}
		}(i)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			var b strings.Builder
			_, _ = r.WriteTo(&b)
		}
	}()
	wg.Wait()
	<-done
	if h.Count() != 8000 {
		t.Fatalf("histogram count = %d", h.Count())
	}
	if r.Counter("cmi_conc2_total", "").Value() != 8000 {
		t.Fatal("counter lost increments")
	}
}

// TestConcurrentScrapeAndRegistration races WriteTo against lazy series
// creation (new label sets, new families, sampled series) — the shape of
// a /api/metrics scrape under live HTTP traffic. Run with -race; the
// regression was WriteTo iterating family.series unlocked while register
// appended to it.
func TestConcurrentScrapeAndRegistration(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("cmi_lazy_total", "", "k")
	stop := make(chan struct{})
	var scraper sync.WaitGroup
	scraper.Add(1)
	go func() {
		defer scraper.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var b strings.Builder
			_, _ = r.WriteTo(&b)
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 300; j++ {
				id := fmt.Sprintf("%d-%d", i, j)
				v.With(id).Inc()
				r.Counter("cmi_lazy2_total", "", L("n", id)).Inc()
				r.Histogram("cmi_lazy_seconds", "", nil, L("n", id)).Observe(time.Millisecond)
				r.GaugeFunc("cmi_lazy_depth", "", func() float64 { return 1 }, L("n", id))
			}
		}(i)
	}
	wg.Wait()
	close(stop)
	scraper.Wait()
}

// TestSampleReplacement pins the re-registration contract: sampled series
// replace their callback (so a rebuilt layer takes over the series), while
// real instruments are never displaced by a later sampled registration.
func TestSampleReplacement(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("cmi_live_depth", "", func() float64 { return 1 }, L("shard", "0"))
	r.GaugeFunc("cmi_live_depth", "", func() float64 { return 2 }, L("shard", "0"))
	r.CounterFunc("cmi_live_total", "", func() float64 { return 10 })
	r.CounterFunc("cmi_live_total", "", func() float64 { return 20 })
	c := r.Counter("cmi_real_total", "")
	c.Add(7)
	r.CounterFunc("cmi_real_total", "", func() float64 { return 99 })

	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `cmi_live_depth{shard="0"} 2`) {
		t.Fatalf("gauge sample not replaced:\n%s", out)
	}
	if !strings.Contains(out, "cmi_live_total 20") {
		t.Fatalf("counter sample not replaced:\n%s", out)
	}
	if !strings.Contains(out, "cmi_real_total 7") {
		t.Fatalf("real counter displaced by sampled registration:\n%s", out)
	}
}

// BenchmarkHistogramObserve guards the allocation-free hot path.
func BenchmarkHistogramObserve(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("cmi_bench_seconds", "", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(time.Duration(i) * time.Nanosecond)
	}
}
