package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"sort"
)

// The op schedule — which instance, which value, read/write order — is a
// pure function of (workload, seed): cmid sees only the HTTP requests
// generated from it, and -dump-schedule prints it for inspection.

// Workload names are fixed; later issues cite them.
const (
	wNotifyLocal     = "notify_local"
	wNotifyFederated = "notify_federated"
	wEnactMixed      = "enact_mixed"
	wFanoutAck       = "fanout_ack"
	wRestart         = "restart"
)

var workloadNames = []string{wNotifyLocal, wNotifyFederated, wEnactMixed, wFanoutAck, wRestart}

// Op names. Targets are symbolic ("i3" = the run's 4th process
// instance, "w5" = participant w5): process ids are assigned by the
// server, so the runner maps instance index to id at seed time.
const (
	opPutTally     = "put_tally"     // PUT …/bc/Tally = value
	opGetTally     = "get_tally"     // GET …/bc/Tally, must equal value
	opInstantiate  = "instantiate"   // POST …/activities {var: Step}
	opStart        = "start"         // POST /api/activities/{new}/start
	opGetWorklist  = "get_worklist"  // GET /api/worklist/u0
	opComplete     = "complete"      // POST /api/activities/{new}/complete
	opGetMonitor   = "get_monitor"   // GET /api/processes/{p}/monitor
	opPutWide      = "put_wide"      // PUT …/bc/Wide = value
	opGetNotifs    = "get_notifs"    // GET /api/notifications/{w}
	opAckPending   = "ack_pending"   // POST …/ack for every id the last get_notifs returned
	opStartProcess = "start_process" // restart image: StartProcess(Bench)
	opSnapshot     = "snapshot"      // restart image: snapshot + truncate the WAL here
	opAck          = "ack"           // restart image: ack notification id=value in queue target
)

// An op is one scheduled operation.
type op struct {
	Seq    int    `json:"seq"`
	Client int    `json:"client"`
	Op     string `json:"op"`
	Target string `json:"target"`
	Value  int64  `json:"value"`
}

// Fixed shape of every workload.
const (
	instancesPerClient = 8
	crewSize           = 16 // members w0..w15 of org role Crew16
	readBackEvery      = 9  // notify_*: every 9th op reads the last write back
)

// clientsOf returns the number of load clients (connections that issue
// requests) of a workload; notify_* add one SSE subscriber connection.
func clientsOf(workload string) int {
	switch workload {
	case wEnactMixed, wFanoutAck:
		return 2
	}
	return 1
}

// instancesOf returns how many Bench process instances setup creates.
func instancesOf(workload string) int { return clientsOf(workload) * instancesPerClient }

// valueBase keeps written values unique within a run and different
// across seeds, so a stale value from another run can never match.
func valueBase(seed int64) int64 {
	m := seed % 997
	if m < 0 {
		m += 997
	}
	return (m + 1) * 1_000_000_000
}

func streamRNG(workload string, seed int64, client int) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d/%d", workload, seed, client)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// A stream is one client's endless op sequence.
type stream struct {
	workload string
	client   int
	rng      *rand.Rand
	base     int64
	seq      int
	written  int64 // unique-value counter
	cycle    []op  // ops of the current cycle still to hand out
	lastInst int
	lastVal  int64
	nextCrew int
}

func newStream(workload string, seed int64, client int) (*stream, error) {
	switch workload {
	case wNotifyLocal, wNotifyFederated, wEnactMixed, wFanoutAck:
	default:
		return nil, fmt.Errorf("workload %q has no client op stream", workload)
	}
	return &stream{
		workload: workload,
		client:   client,
		rng:      streamRNG(workload, seed, client),
		// Clients write disjoint value ranges.
		base: valueBase(seed) + int64(client)*100_000_000,
	}, nil
}

func (s *stream) inst() int { return s.client*instancesPerClient + s.rng.Intn(instancesPerClient) }

func (s *stream) value() int64 {
	s.written++
	return s.base + s.written
}

// next returns the client's next op.
func (s *stream) next() op {
	if len(s.cycle) == 0 {
		s.fill()
	}
	o := s.cycle[0]
	s.cycle = s.cycle[1:]
	o.Seq, o.Client = s.seq, s.client
	s.seq++
	return o
}

func (s *stream) fill() {
	inst := func(i int) string { return fmt.Sprintf("i%d", i) }
	switch s.workload {
	case wNotifyLocal, wNotifyFederated:
		if s.seq%readBackEvery == readBackEvery-1 {
			s.cycle = append(s.cycle[:0], op{Op: opGetTally, Target: inst(s.lastInst), Value: s.lastVal})
			return
		}
		s.lastInst, s.lastVal = s.inst(), s.value()
		s.cycle = append(s.cycle[:0], op{Op: opPutTally, Target: inst(s.lastInst), Value: s.lastVal})
	case wEnactMixed:
		t := inst(s.inst())
		s.cycle = append(s.cycle[:0],
			op{Op: opInstantiate, Target: t},
			op{Op: opStart, Target: t},
			op{Op: opGetWorklist, Target: "u0"},
			op{Op: opComplete, Target: t},
			op{Op: opGetMonitor, Target: t})
	case wFanoutAck:
		// Each client polls its own half of the crew round-robin.
		half := crewSize / 2
		w := fmt.Sprintf("w%d", s.client*half+s.nextCrew%half)
		s.nextCrew++
		s.cycle = append(s.cycle[:0],
			op{Op: opPutWide, Target: inst(s.inst()), Value: s.value()},
			op{Op: opGetNotifs, Target: w},
			op{Op: opAckPending, Target: w})
	}
}

// Fixed totals of the restart crash image. The seed decides which
// instance each write lands on and which notifications are acked, never
// how many: every seed costs recovery the same work.
const (
	imageInstances    = 2000 // live process instances
	imagePreSnapshot  = 2000 // Wide writes before the snapshot (compacted away with the starts)
	imagePostSnapshot = 3000 // Wide writes after it = WAL records recovery replays
	imageAckedPerQ    = 2700 // of 5000 per queue; acked > pending, so load-time compaction runs
)

const (
	imageWrites       = imagePreSnapshot + imagePostSnapshot
	imagePendingPerQ  = imageWrites - imageAckedPerQ
	imageReplayedRecs = imagePostSnapshot
)

// imagePlan returns the library operations that build the restart
// workload's crash image.
func imagePlan(seed int64) []op {
	rng := streamRNG(wRestart, seed, 0)
	base := valueBase(seed)
	plan := make([]op, 0, imageInstances+imageWrites+1+crewSize*imageAckedPerQ)
	add := func(o op) {
		o.Seq = len(plan)
		plan = append(plan, o)
	}
	for i := 0; i < imageInstances; i++ {
		add(op{Op: opStartProcess, Target: fmt.Sprintf("i%d", i)})
	}
	for n := 0; n < imageWrites; n++ {
		if n == imagePreSnapshot {
			add(op{Op: opSnapshot})
		}
		add(op{Op: opPutWide, Target: fmt.Sprintf("i%d", rng.Intn(imageInstances)), Value: base + int64(n) + 1})
	}
	// Every Wide write lands once in each crew queue, so each queue
	// holds ids 1..imageWrites; ack a seeded subset of fixed size.
	for q := 0; q < crewSize; q++ {
		ids := rng.Perm(imageWrites)[:imageAckedPerQ]
		sort.Ints(ids)
		for _, id := range ids {
			add(op{Op: opAck, Target: fmt.Sprintf("w%d", q), Value: int64(id) + 1})
		}
	}
	return plan
}

// dumpSchedule writes the first n ops of every client of the workload
// (for restart: of the image plan) as JSONL.
func dumpSchedule(w io.Writer, workload string, seed int64, n int) error {
	enc := json.NewEncoder(w)
	if workload == wRestart {
		plan := imagePlan(seed)
		if n < len(plan) {
			plan = plan[:n]
		}
		for _, o := range plan {
			if err := enc.Encode(o); err != nil {
				return err
			}
		}
		return nil
	}
	clients := clientsOf(workload)
	streams := make([]*stream, clients)
	for c := range streams {
		s, err := newStream(workload, seed, c)
		if err != nil {
			return err
		}
		streams[c] = s
	}
	for i := 0; i < n; i++ {
		for _, s := range streams {
			if err := enc.Encode(s.next()); err != nil {
				return err
			}
		}
	}
	return nil
}
