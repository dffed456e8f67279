package main

import (
	"bufio"
	"bytes"
	"context"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// percentile returns the p-quantile (0..1) of sorted by nearest rank.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// tailQuantile is the tail percentile a sample of size n supports: p95,
// or with too few samples the highest percentile that still has ten
// samples beyond it (the choosing-metrics rule), never below the median.
func tailQuantile(n int) float64 {
	const want = 0.95
	if n <= 0 {
		return want
	}
	p := 1 - 10/float64(n)
	if p > want {
		return want
	}
	if p < 0.5 {
		return 0.5
	}
	return p
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return percentile(sortedCopy(v), 0.5) }

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// quartiles returns Q1, Q2, Q3 the way Python's
// statistics.quantiles(v, n=4) does (exclusive method), which is what
// the acceptance rule for run-to-run spread uses.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		// i-th of 4 cut points: position i*(n+1)/4 in 1-based order.
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := i*(n+1) - j*4
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return at(1), at(2), at(3)
}

// A scrape is one parsed GET /api/metrics: series name with its label
// set (as exposed) -> value.
type scrape map[string]float64

func parseScrape(text []byte) scrape {
	out := scrape{}
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

func scrapeChild(ctx context.Context, c *conn, base string) (scrape, error) {
	b, err := c.do(ctx, http.MethodGet, base+"/api/metrics", "")
	if err != nil {
		return nil, err
	}
	return parseScrape(b), nil
}

// sum adds every series of the family `name` (exact name, any labels)
// whose label set contains all of the given `key="value"` fragments.
func (s scrape) sum(name string, labels ...string) float64 {
	var total float64
	for k, v := range s {
		fam := k
		lbl := ""
		if i := strings.IndexByte(k, '{'); i >= 0 {
			fam, lbl = k[:i], k[i:]
		}
		if fam != name {
			continue
		}
		ok := true
		for _, l := range labels {
			if !strings.Contains(lbl, l) {
				ok = false
				break
			}
		}
		if ok {
			total += v
		}
	}
	return total
}

// delta returns after-before for a counter family.
func delta(before, after scrape, name string, labels ...string) float64 {
	return after.sum(name, labels...) - before.sum(name, labels...)
}

// histMean returns the mean observation, in seconds, a histogram family
// recorded between two scrapes (0 with no observations).
func histMean(before, after scrape, name string, labels ...string) float64 {
	sum, n := histDelta(before, after, name, labels...)
	return ratio(sum, n)
}

// histDelta returns the sum and count a histogram family accumulated
// between two scrapes.
func histDelta(before, after scrape, name string, labels ...string) (sum, n float64) {
	return delta(before, after, name+"_sum", labels...), delta(before, after, name+"_count", labels...)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
