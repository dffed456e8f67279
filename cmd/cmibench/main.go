// Command cmibench regenerates the paper's figures and reported numbers
// (see DESIGN.md's per-experiment index and EXPERIMENTS.md for the
// paper-vs-measured record).
//
// Usage:
//
//	cmibench [-exp all|fig1|fig3|fig4|sec54|sec7|overload|ablation|audit]
//
// Performance is measured end to end by the pipeline benchmark in bench/
// (see BENCHMARK.json); profile a running daemon with cmid -pprof.
package main

import (
	"flag"
	"fmt"
	"log"
	"path/filepath"
	"strings"
	"time"

	cmi "github.com/mcc-cmi/cmi"
	"github.com/mcc-cmi/cmi/internal/audit"
	"github.com/mcc-cmi/cmi/internal/awareness"
	"github.com/mcc-cmi/cmi/internal/core"
	"github.com/mcc-cmi/cmi/internal/crisis"
	"github.com/mcc-cmi/cmi/internal/event"
	"github.com/mcc-cmi/cmi/internal/vclock"
	"github.com/mcc-cmi/cmi/internal/wfms"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cmibench: ")
	exp := flag.String("exp", "all", "experiment: all|fig1|fig3|fig4|sec54|sec7|overload|ablation|audit")
	flag.Parse()

	exps := []struct {
		name string
		run  func() error
	}{
		{"fig1", fig1},
		{"fig3", fig3},
		{"fig4", fig4},
		{"sec54", sec54},
		{"sec7", sec7},
		{"overload", overload},
		{"ablation", ablation},
		{"audit", auditVsLive},
	}
	ran := false
	for _, e := range exps {
		if *exp != "all" && *exp != e.name {
			continue
		}
		if err := e.run(); err != nil {
			log.Fatalf("%s: %v", e.name, err)
		}
		if *exp == "all" {
			fmt.Println()
		}
		ran = true
	}
	if !ran {
		log.Fatalf("unknown experiment %q", *exp)
	}
}

func header(title string) {
	fmt.Println(strings.Repeat("=", 72))
	fmt.Println(title)
	fmt.Println(strings.Repeat("=", 72))
}

// fig1 regenerates Figure 1: tasks during crisis information gathering,
// as a Gantt chart over the virtual-time scenario.
func fig1() error {
	header("Figure 1 — Tasks during crisis information gathering")
	res, err := crisis.RunFigure1()
	if err != nil {
		return err
	}
	total := res.ProcessEnd.Sub(res.ProcessStart)
	fmt.Printf("process span: %s .. %s (%.0fh), %d activity events\n\n",
		res.ProcessStart.Format("Jan 2 15:04"), res.ProcessEnd.Format("Jan 2 15:04"),
		total.Hours(), res.Events)
	const width = 48
	for _, r := range res.Rows {
		startCol := int(float64(r.Start.Sub(res.ProcessStart)) / float64(total) * width)
		endCol := int(float64(r.End.Sub(res.ProcessStart)) / float64(total) * width)
		if endCol <= startCol {
			endCol = startCol + 1
		}
		bar := strings.Repeat(" ", startCol) + strings.Repeat("#", endCol-startCol)
		opt := " "
		if r.Optional {
			opt = "?"
		}
		fmt.Printf("%-22s %s|%-*s|\n", r.Label, opt, width, bar)
	}
	fmt.Printf("\n('?' marks optional activities; three task forces staggered, three lab tests, as in the paper)\n")
	fmt.Printf("awareness notifications: %v\n", res.Notifications)
	return nil
}

// fig3 prints the CMM schema inventory of the deployment model: the
// meta-model instantiated (Figure 2/3's primitives in use).
func fig3() error {
	header("Figure 2/3 — CMM primitives instantiated (schema inventory)")
	d, err := crisis.NewDeployment()
	if err != nil {
		return err
	}
	fmt.Printf("%-24s %-10s %-10s %-10s %-8s\n", "process schema", "activities", "subproc", "deps", "contexts")
	for _, p := range d.Processes {
		subs := len(p.Subprocesses())
		ctxs := 0
		for _, rv := range p.ResourceVars {
			if rv.Schema.Kind == core.ContextResource {
				ctxs++
			}
		}
		fmt.Printf("%-24s %-10d %-10d %-10d %-8d\n", p.Name, len(p.Activities), subs, len(p.Dependencies), ctxs)
	}
	fmt.Printf("\nawareness schemas: %d; context-management scripts: %d\n", len(d.Awareness), len(d.Scripts))
	return nil
}

// fig4 prints the generic activity state schema: states, substate
// relations and the legal transition matrix.
func fig4() error {
	header("Figure 4 — Generic activity state schema")
	s := core.GenericStateSchema()
	fmt.Println("states (substates indented):")
	for _, st := range s.States() {
		if s.Parent(st) == "" {
			fmt.Printf("  %s\n", st)
			for _, sub := range s.States() {
				if s.Parent(sub) == st {
					fmt.Printf("    %s\n", sub)
				}
			}
		}
	}
	leaves := s.Leaves()
	fmt.Printf("\ntransition matrix (rows: from, cols: to):\n%-14s", "")
	for _, to := range leaves {
		fmt.Printf("%-14s", to)
	}
	fmt.Println()
	for _, from := range leaves {
		fmt.Printf("%-14s", from)
		for _, to := range leaves {
			mark := "."
			if s.Legal(from, to) {
				mark = "X"
			}
			fmt.Printf("%-14s", mark)
		}
		fmt.Println()
	}
	fmt.Printf("\ninitial state: %s; %d legal transitions\n", s.Initial(), len(s.Transitions()))
	return nil
}

// sec54 runs the deadline-violation awareness schema end to end and
// reports what was detected and delivered to whom.
func sec54() error {
	header("Section 5.4 — Deadline-violation awareness schema (AS_InfoRequest)")
	clk := vclock.NewVirtual()
	sys, err := cmi.New(cmi.Config{Clock: clk})
	if err != nil {
		return err
	}
	defer sys.Close()
	model, err := crisis.NewModel()
	if err != nil {
		return err
	}
	if err := sys.RegisterProcess(model.TaskForce); err != nil {
		return err
	}
	if err := sys.DefineAwareness(model.Awareness[0]); err != nil {
		return err
	}
	staff, err := crisis.SeedStaff(sys, 3)
	if err != nil {
		return err
	}
	if err := sys.Start(); err != nil {
		return err
	}
	pi, err := sys.StartProcess("TaskForce", staff.Leader)
	if err != nil {
		return err
	}
	t0 := clk.Now()
	co := sys.Coordination()
	var organize string
	for _, ai := range co.ActivitiesOf(pi.ID()) {
		organize = ai.ID
	}
	if err := co.Start(organize, staff.Leader); err != nil {
		return err
	}
	if err := co.Complete(organize, staff.Leader); err != nil {
		return err
	}
	var reqID string
	for _, ai := range co.ActivitiesOf(pi.ID()) {
		if ai.Var == "RequestInfo" {
			reqID = ai.ID
		}
	}
	if err := co.Start(reqID, staff.Leader); err != nil {
		return err
	}
	requestor := staff.Epidemiologists[0]
	if err := sys.SetScopedRole(reqID, "irc", "Requestor", requestor); err != nil {
		return err
	}
	if err := sys.SetContextField(reqID, "irc", "RequestDeadline", t0.Add(48*time.Hour)); err != nil {
		return err
	}
	fmt.Printf("t0+0h   task force %s started; info request %s by %s, request deadline t0+48h\n",
		pi.ID(), reqID, requestor)
	if err := sys.SetContextField(pi.ID(), "tfc", "TaskForceDeadline", t0.Add(72*time.Hour)); err != nil {
		return err
	}
	fmt.Println("t0+0h   task force deadline set to t0+72h (no violation: 72 > 48)")
	clk.Advance(6 * time.Hour)
	if err := sys.SetContextField(pi.ID(), "tfc", "TaskForceDeadline", t0.Add(24*time.Hour)); err != nil {
		return err
	}
	fmt.Println("t0+6h   task force deadline MOVED to t0+24h (violation: 24 <= 48)")
	sys.Drain()
	for _, p := range []string{requestor, staff.Leader, staff.Epidemiologists[1]} {
		notifs := sys.MustViewer(p)
		fmt.Printf("        %-8s received %d notification(s)", p, len(notifs))
		for _, n := range notifs {
			fmt.Printf("  [%s: %s]", n.Schema, n.Description)
		}
		fmt.Println()
	}
	delivered, undeliverable, _ := sys.DeliveryAgent().Stats()
	fmt.Printf("delivery agent: %d delivered, %d undeliverable — exactly the scoped Requestor role\n",
		delivered, undeliverable)
	return nil
}

// sec7 reproduces the Section 7 deployment-scale report.
func sec7() error {
	header("Section 7 — DARPA demonstration scale (paper vs measured)")
	d, err := crisis.NewDeployment()
	if err != nil {
		return err
	}
	inv, err := d.Inventory()
	if err != nil {
		return err
	}
	rows := []struct {
		metric   string
		paper    string
		measured string
	}{
		{"collaboration processes", "9", fmt.Sprint(inv.Processes)},
		{"CMM activities", "> 50", fmt.Sprint(inv.CMMActivities)},
		{"WfMS activities after translation", "a few hundred", fmt.Sprint(inv.WfMSActivities)},
		{"CMM -> WfMS expansion", "(implied several-fold)", fmt.Sprintf("%.1fx", inv.Expansion)},
		{"awareness specifications", "8", fmt.Sprint(inv.AwarenessSpecs)},
		{"basic activity scripts", "30", fmt.Sprint(inv.Scripts)},
	}
	fmt.Printf("%-38s %-22s %s\n", "metric", "paper", "measured")
	for _, r := range rows {
		fmt.Printf("%-38s %-22s %s\n", r.metric, r.paper, r.measured)
	}
	fmt.Println("\nper-process translation:")
	fmt.Printf("%-24s %-14s %-14s %s\n", "process", "CMM acts", "WfMS acts", "factor")
	seen := map[string]bool{}
	for _, p := range d.Processes {
		defs, err := wfms.Translate(p, wfms.TranslateOptions{RepeatWidth: 2})
		if err != nil {
			return err
		}
		for _, def := range defs {
			if seen[def.Name] {
				continue
			}
			seen[def.Name] = true
			var cm *cmi.ProcessSchema
			for _, q := range d.Processes {
				if q.Name == def.Name {
					cm = q
				}
			}
			cmm := 0
			if cm != nil {
				cmm = len(cm.Activities)
			} else if def.Name == "InfoRequest" || def.Name == "TaskForce" {
				continue
			}
			if cmm == 0 {
				continue
			}
			fmt.Printf("%-24s %-14d %-14d %.1fx\n", def.Name, cmm, len(def.Nodes), float64(len(def.Nodes))/float64(cmm))
		}
	}
	return nil
}

// overload runs the E7 information-overload comparison across scales.
func overload() error {
	header("E7 — Information overload: CMI vs content pub/sub vs WfMS monitoring")
	fmt.Printf("%-7s %-9s %-9s | %-21s | %-21s | %-21s\n",
		"forces", "people", "relevant", "CMI del/prec/recall", "PubSub del/prec/recall", "Monitor del/prec/recall")
	for _, forces := range []int{2, 4, 8, 16} {
		cfg := crisis.DefaultOverloadConfig()
		cfg.TaskForces = forces
		res, err := crisis.RunOverload(cfg)
		if err != nil {
			return err
		}
		fmt.Printf("%-7d %-9d %-9d | %5d  %.2f  %.2f     | %5d  %.2f  %.2f     | %6d  %.2f  %.2f\n",
			forces, res.Participants, res.Relevant,
			res.CMI.Delivered, res.CMI.Precision(), res.CMI.Recall(res.Relevant),
			res.PubSub.Delivered, res.PubSub.Precision(), res.PubSub.Recall(res.Relevant),
			res.Monitor.Delivered, res.Monitor.Precision(), res.Monitor.Recall(res.Relevant))
	}
	fmt.Println("\nshape: CMI delivers exactly the relevant information (precision = recall = 1);")
	fmt.Println("content filtering finds everything but cannot express the deadline comparison")
	fmt.Println("(precision ~0.5); built-in WfMS monitoring floods participants with raw events.")
	return nil
}

// ablation compares awareness detection with process-instance
// replication on vs off (paper Section 5.1.2 / experiment E8).
func ablation() error {
	header("E8 — Ablation: per-process-instance operator replication")
	type outcome struct {
		detections int
		wrong      int
	}
	run := func(disable bool) (outcome, error) {
		clk := vclock.NewVirtual()
		sys, err := cmi.New(cmi.Config{Clock: clk, DisableReplication: disable})
		if err != nil {
			return outcome{}, err
		}
		defer sys.Close()
		model, err := crisis.NewModel()
		if err != nil {
			return outcome{}, err
		}
		if err := sys.RegisterProcess(model.TaskForce); err != nil {
			return outcome{}, err
		}
		if err := sys.DefineAwareness(model.Awareness[0]); err != nil {
			return outcome{}, err
		}
		staff, err := crisis.SeedStaff(sys, 4)
		if err != nil {
			return outcome{}, err
		}
		if err := sys.Start(); err != nil {
			return outcome{}, err
		}
		pi, err := sys.StartProcess("TaskForce", staff.Leader)
		if err != nil {
			return outcome{}, err
		}
		t0 := clk.Now()
		co := sys.Coordination()
		var organize string
		for _, ai := range co.ActivitiesOf(pi.ID()) {
			organize = ai.ID
		}
		if err := co.Start(organize, staff.Leader); err != nil {
			return outcome{}, err
		}
		if err := co.Complete(organize, staff.Leader); err != nil {
			return outcome{}, err
		}
		// Two requests: one with a tight deadline (violated), one far out.
		mkReq := func(requestor string, deadline time.Time, first bool) (string, error) {
			var id string
			if first {
				for _, ai := range co.ActivitiesOf(pi.ID()) {
					if ai.Var == "RequestInfo" && ai.State == cmi.Ready {
						id = ai.ID
					}
				}
			} else {
				info, err := co.Instantiate(pi.ID(), "RequestInfo", staff.Leader)
				if err != nil {
					return "", err
				}
				id = info.ID
			}
			if err := co.Start(id, staff.Leader); err != nil {
				return "", err
			}
			if err := sys.SetScopedRole(id, "irc", "Requestor", requestor); err != nil {
				return "", err
			}
			return id, sys.SetContextField(id, "irc", "RequestDeadline", deadline)
		}
		// First request due at +10h (not violated by a move to +24h);
		// second due at +48h (violated). With replication off, the
		// shared Compare2 state holds the latest request deadline (48h)
		// for every instance, so the move fires for BOTH instances and
		// misattributes a detection to the first request.
		if _, err := mkReq(staff.Epidemiologists[1], t0.Add(10*time.Hour), true); err != nil {
			return outcome{}, err
		}
		victim, err := mkReq(staff.Epidemiologists[0], t0.Add(48*time.Hour), false)
		if err != nil {
			return outcome{}, err
		}
		// Move the deadline to +24h: violates only the second request.
		if err := sys.SetContextField(pi.ID(), "tfc", "TaskForceDeadline", t0.Add(24*time.Hour)); err != nil {
			return outcome{}, err
		}
		sys.Drain()
		var o outcome
		for _, p := range staff.Epidemiologists {
			for _, n := range sys.MustViewer(p) {
				o.detections++
				inst, _ := n.Params["processInstanceId"].(string)
				if inst != victim || p != staff.Epidemiologists[0] {
					o.wrong++
				}
			}
		}
		return o, nil
	}
	on, err := run(false)
	if err != nil {
		return err
	}
	off, err := run(true)
	if err != nil {
		return err
	}
	fmt.Printf("%-28s %-14s %s\n", "configuration", "detections", "misattributed")
	fmt.Printf("%-28s %-14d %d\n", "replication ON (paper)", on.detections, on.wrong)
	fmt.Printf("%-28s %-14d %d\n", "replication OFF (ablated)", off.detections, off.wrong)
	fmt.Println("\nwithout per-instance replication the operators mix events across process")
	fmt.Println("instances and produce spurious, misattributed detections (Section 5.1.2).")
	return nil
}

// auditVsLive contrasts the Section 2 "analyze the process monitoring
// logs" path with CMI's live awareness: the same detection logic runs
// over the audit journal after the fact and finds the same violation,
// but only when the analysis runs — the staleness is unbounded, while
// live awareness delivered at detection time.
func auditVsLive() error {
	header("E11 — After-the-fact log analysis vs live awareness (Section 2)")
	clk := vclock.NewVirtual()
	sys, err := cmi.New(cmi.Config{Clock: clk})
	if err != nil {
		return err
	}
	defer sys.Close()
	journal := filepath.Join(sys.StateDir(), "audit.jsonl")
	rec, err := cmi.NewAuditRecorder(journal)
	if err != nil {
		return err
	}
	defer rec.Close()
	sys.Coordination().Observe(rec)
	sys.Contexts().Observe(rec)

	model, err := crisis.NewModel()
	if err != nil {
		return err
	}
	if err := sys.RegisterProcess(model.TaskForce); err != nil {
		return err
	}
	if err := sys.DefineAwareness(model.Awareness[0]); err != nil {
		return err
	}
	staff, err := crisis.SeedStaff(sys, 2)
	if err != nil {
		return err
	}
	if err := sys.Start(); err != nil {
		return err
	}
	pi, err := sys.StartProcess("TaskForce", staff.Leader)
	if err != nil {
		return err
	}
	t0 := clk.Now()
	co := sys.Coordination()
	var organize string
	for _, ai := range co.ActivitiesOf(pi.ID()) {
		organize = ai.ID
	}
	if err := co.Start(organize, staff.Leader); err != nil {
		return err
	}
	if err := co.Complete(organize, staff.Leader); err != nil {
		return err
	}
	var reqID string
	for _, ai := range co.ActivitiesOf(pi.ID()) {
		if ai.Var == "RequestInfo" {
			reqID = ai.ID
		}
	}
	if err := co.Start(reqID, staff.Leader); err != nil {
		return err
	}
	if err := sys.SetScopedRole(reqID, "irc", "Requestor", staff.Epidemiologists[0]); err != nil {
		return err
	}
	if err := sys.SetContextField(reqID, "irc", "RequestDeadline", t0.Add(48*time.Hour)); err != nil {
		return err
	}
	if err := sys.SetContextField(pi.ID(), "tfc", "TaskForceDeadline", t0.Add(24*time.Hour)); err != nil {
		return err
	}
	liveAt := clk.Now()
	live := len(sys.MustViewer(staff.Epidemiologists[0]))

	// The participants keep working; the log analyst comes in much
	// later and replays the journal through the same detection logic.
	clk.Advance(72 * time.Hour)
	analysisAt := clk.Now()
	offline := 0
	graph, err := awareness.Compile([]*awareness.Schema{model.Awareness[0]}, true,
		event.ConsumerFunc(func(event.Event) { offline++ }))
	if err != nil {
		return err
	}
	replayed, err := audit.Replay(journal, audit.Query{}, event.ConsumerFunc(func(ev event.Event) {
		_, _ = graph.InjectEvent(ev)
	}))
	if err != nil {
		return err
	}
	fmt.Printf("journal: %d primitive events recorded\n", replayed)
	fmt.Printf("%-28s %-14s %s\n", "path", "detections", "information age when seen")
	fmt.Printf("%-28s %-14d %s\n", "CMI live awareness", live, "0h (delivered at detection time)")
	fmt.Printf("%-28s %-14d %.0fh (when the analyst ran the query)\n",
		"log analysis (replayed)", offline, analysisAt.Sub(liveAt).Hours())
	fmt.Println("\nthe monitoring-log path finds the same composite condition, but only when")
	fmt.Println("someone runs the analysis — Section 2's argument for built-in, live awareness.")
	return nil
}
