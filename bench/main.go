// Command bench is the CMI pipeline benchmark: it drives named workloads
// against real cmid child processes (tracing off), measures the
// end-to-end metrics a participant or operator would see, and — with
// -trace 1 — adds the per-layer budget taken from outside the program:
// /api/metrics deltas, a traced in-process run with shims at the public
// seams, and fixed-count loops over each layer's public functions.
//
// bench/run.sh builds this program and cmid and execs it; see
// bench/README.md for the workloads, the metric definitions and the
// calibration record.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// defaultSeed is the seed of a run that names none (recorded in
// bench/README.md; BENCHMARK.json's schema has no place for it).
const defaultSeed = 1

type options struct {
	workload string
	seed     int64
	seconds  int
	window   time.Duration // seconds as a duration; tests set it below a second
	setups   int           // set-ups per run; 0 selects setupsOf
	trace    int
	cmid     string
	work     string
	buildS   float64
	deadline time.Duration
	aa       int
	dump     bool
	dumpOps  int
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run (default: all five, then print every metric)")
	flag.Int64Var(&o.seed, "seed", defaultSeed, "seed of the op schedule")
	flag.IntVar(&o.seconds, "seconds", 18, "measured window in seconds")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics (scrapes, traced in-process run, direct loops)")
	flag.StringVar(&o.cmid, "cmid", "", "path of the cmid binary under test (built by bench/run.sh)")
	flag.StringVar(&o.work, "work", ".bench_build", "directory for the run's temp dir and trace files")
	flag.Float64Var(&o.buildS, "build-s", 0, "seconds bench/run.sh spent building (reported as system.build_s)")
	flag.DurationVar(&o.deadline, "deadline", 0, "abort, tear down and exit non-zero after this long (default 170s per workload run)")
	flag.IntVar(&o.aa, "aa", 0, "A/A mode: run the whole set this many times on the same binary and compare")
	flag.BoolVar(&o.dump, "dump-schedule", false, "print the workload's generated ops as JSONL and exit")
	flag.IntVar(&o.dumpOps, "dump-ops", 64, "ops per client -dump-schedule prints")
	flag.Parse()
	o.window = time.Duration(o.seconds) * time.Second
	os.Exit(realMain(o))
}

func realMain(o options) (code int) {
	runtime.GOMAXPROCS(runtime.NumCPU()) // one load process using the box's cores; children keep their default
	if o.dump {
		if o.workload == "" {
			fmt.Fprintln(os.Stderr, "bench: -dump-schedule needs -workload")
			return 2
		}
		if err := dumpSchedule(os.Stdout, o.workload, o.seed, o.dumpOps); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		return 0
	}
	if o.workload != "" && !knownWorkload(o.workload) {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %v)\n", o.workload, workloadNames)
		return 2
	}
	if o.cmid == "" {
		fmt.Fprintln(os.Stderr, "bench: -cmid is required (run bench/run.sh, which builds it)")
		return 2
	}

	runs := 1
	if o.workload == "" {
		runs = len(workloadNames)
	}
	if o.aa > 0 {
		runs *= o.aa
	}
	if o.deadline <= 0 {
		o.deadline = time.Duration(runs) * 170 * time.Second
	}
	ctx, cancelDeadline := context.WithTimeout(context.Background(), o.deadline)
	defer cancelDeadline()
	ctx, stopSignals := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	e, err := newEnv(o.work, o.cmid)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	// Watchdog of last resort: if teardown itself wedges past the
	// deadline, kill every child's process group and leave.
	finished := make(chan struct{})
	defer close(finished) // registered first, so it runs after the teardown below
	go func() {
		<-ctx.Done()
		select {
		case <-finished:
		case <-time.After(20 * time.Second):
			e.killAll()
			fmt.Fprintln(os.Stderr, "bench: teardown did not finish within 20s of the deadline or signal; children killed")
			os.Exit(3)
		}
	}()
	// One teardown for every way out: return, error, panic.
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintf(os.Stderr, "bench: panic: %v\n", r)
			code = 1
		}
		if cerr := e.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "bench: teardown:", cerr)
			code = 1
		}
	}()

	switch {
	case o.aa > 0:
		err = runAA(ctx, e, o)
	case o.workload == "":
		err = runAll(ctx, e, o)
	default:
		err = runOne(ctx, e, o)
	}
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			err = fmt.Errorf("deadline of %v exceeded: %w", o.deadline, err)
		}
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}

func knownWorkload(name string) bool {
	for _, w := range workloadNames {
		if w == name {
			return true
		}
	}
	return false
}

// measure runs one workload once: end-to-end metrics always, per-layer
// metrics too when traced.
func measure(ctx context.Context, e *env, o options, workload string, traced bool) (*result, error) {
	p := params{workload: workload, seed: o.seed, window: o.window, setups: o.setups}
	if p.setups == 0 {
		p.setups = setupsOf(workload)
	}
	var res *result
	var err error
	if workload == wRestart {
		res, err = runRestart(ctx, e, p, traced)
	} else {
		res, err = runHTTP(ctx, e, p)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	res.layer["system.build_s"] = o.buildS
	if traced {
		if err := addTraced(ctx, e, o, p, res); err != nil {
			return nil, fmt.Errorf("%s: %w", workload, err)
		}
	}
	return res, nil
}

// setupsOf is how many times a run sets up; setup_s is the median. The
// restart image takes seconds to build, the others a fraction of one.
func setupsOf(workload string) int {
	if workload == wRestart {
		return 5
	}
	return 9
}

// verdict is the contract's last stdout line.
type verdict struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne is the driver's entry: one workload, one JSON verdict.
func runOne(ctx context.Context, e *env, o options) error {
	res, err := measure(ctx, e, o, o.workload, o.trace == 1)
	if err != nil {
		return err
	}
	defs, values := endToEnd, res.e2e
	if o.trace == 1 {
		defs, values = perLayer, res.layer
	}
	printTable(os.Stdout, res, o.trace == 1)
	v := verdict{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	line, err := json.Marshal(v)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if res.failed > 0 {
		return fmt.Errorf("%s: %d of %d operations or checks failed; first: %v", res.workload, res.failed, res.attempted, res.firstErr)
	}
	return nil
}

// runAll is the one command for people: every workload untraced, then
// traced, every metric printed by name with unit and sample count.
func runAll(ctx context.Context, e *env, o options) error {
	failed := 0
	for _, w := range workloadNames {
		res, err := measure(ctx, e, o, w, true)
		if err != nil {
			return err
		}
		printTable(os.Stdout, res, true)
		failed += res.failed
		if res.failed > 0 {
			fmt.Fprintf(os.Stderr, "bench: %s: first failure: %v\n", w, res.firstErr)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d operations or checks failed", failed)
	}
	return nil
}

// printTable prints a result's metrics, one per line.
func printTable(w *os.File, res *result, layers bool) {
	fmt.Fprintf(w, "== %s: attempted %d, failed %d, fail_ratio %g\n", res.workload, res.attempted, res.failed,
		ratio(float64(res.failed), float64(res.attempted)))
	for _, d := range endToEnd {
		fmt.Fprintf(w, "%-34s %14.4f %-6s n=%d\n", d.name, res.e2e[d.name], d.unit, res.counts[d.name])
	}
	if !layers {
		return
	}
	names := make([]string, 0, len(perLayer))
	for _, d := range perLayer {
		names = append(names, d.name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "%-34s %14.4f %-6s n=%d\n", name, res.layer[name], unitOf(name), res.counts[name])
	}
}
