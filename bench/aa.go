package main

import (
	"context"
	"fmt"
	"os"
)

// runAA is the A/A mode: the same binary, the same seed, the whole set
// of workloads (or the one named) K times. For every end-to-end metric
// it prints the median, the quartiles, the run-to-run spread
// (Q3-Q1)/median that the acceptance rule uses, and the largest
// pairwise deviation (max-min)/median, against the metric's bound. A
// metric whose spread is over its bound fails the command; with fewer
// than four rounds quartiles mean nothing and the pairwise deviation
// decides.
func runAA(ctx context.Context, e *env, o options) error {
	workloads := workloadNames
	if o.workload != "" {
		workloads = []string{o.workload}
	}
	values := map[string]map[string][]float64{}
	for _, w := range workloads {
		values[w] = map[string][]float64{}
	}
	for k := 0; k < o.aa; k++ {
		for _, w := range workloads {
			res, err := measure(ctx, e, o, w, false)
			if err != nil {
				return err
			}
			if res.failed > 0 {
				return fmt.Errorf("%s: %d of %d operations or checks failed; first: %v", w, res.failed, res.attempted, res.firstErr)
			}
			for _, d := range endToEnd {
				values[w][d.name] = append(values[w][d.name], res.e2e[d.name])
			}
			fmt.Fprintf(os.Stderr, "bench: A/A round %d/%d: %s done\n", k+1, o.aa, w)
		}
	}
	fmt.Printf("%-17s %-14s %12s %12s %12s %8s %8s %6s\n", "workload", "metric", "median", "q1", "q3", "spread", "maxdev", "bound")
	over := 0
	for _, w := range workloads {
		for _, d := range endToEnd {
			v := values[w][d.name]
			q1, q2, q3 := quartiles(v)
			s := sortedCopy(v)
			spread, maxdev := ratio(q3-q1, q2), ratio(s[len(s)-1]-s[0], q2)
			verdict := ""
			// setup_s is gated on its medians only, never on its spread.
			dev := spread
			if len(v) < 4 {
				dev = maxdev
			}
			if d.name != "setup_s" && dev > d.bound {
				verdict = "OVER"
				over++
			}
			fmt.Printf("%-17s %-14s %12.4f %12.4f %12.4f %8.4f %8.4f %6.2f %s\n", w, d.name, q2, q1, q3, spread, maxdev, d.bound, verdict)
		}
	}
	if over > 0 {
		return fmt.Errorf("A/A: %d metric(s) deviate between runs of the same code by more than their bound", over)
	}
	return nil
}
