package enact

import (
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"github.com/mcc-cmi/cmi/internal/core"
	"github.com/mcc-cmi/cmi/internal/vclock"
)

// stripedProcess is the property-test workload family: a repeatable
// Step the workers cycle through Instantiate/Start/Complete, a Hold
// nobody touches (so the process never auto-completes), and a context
// for set_field traffic. No performer roles, so any user may drive it.
func stripedProcess() *core.ProcessSchema {
	return &core.ProcessSchema{
		Name: "StripeFam",
		ResourceVars: []core.ResourceVariable{
			{Name: "sc", Usage: core.UsageLocal, Schema: &core.ResourceSchema{
				Name:   "StripeCtx",
				Kind:   core.ContextResource,
				Fields: []core.FieldDef{{Name: "Tally", Type: core.FieldInt}},
			}},
		},
		Activities: []core.ActivityVariable{
			{Name: "Step", Schema: &core.BasicActivitySchema{Name: "StripeStep"}, Repeatable: true},
			{Name: "Hold", Schema: &core.BasicActivitySchema{Name: "StripeHold"}},
		},
	}
}

// TestStripedConcurrencyProperty hammers unrelated process families
// from concurrent workers — each worker owns its families exclusively —
// against the striped engine with an attached WAL, then checks the
// tentpole's core ordering property and the recovery equivalences:
//
//   - after every operation of every worker, the indexed Worklist and
//     the id-ordered Monitor equal their full-scan and sort-based
//     references (checkReads), as they do on each recovered engine;
//   - the journal is a legal linearization: for every family, the
//     subsequence of journal records touching it equals the owning
//     worker's program order (records are staged under the family's
//     stripe lock, so cross-family interleaving is free but per-family
//     order is program order);
//   - every record is v2 (carries family root and drawn ids);
//   - replaying the concurrent-run journal into fresh engines — once
//     sequentially (stripes=1) and once through the parallel family
//     lanes (stripes=4) — reconstructs state byte-identical to the live
//     engine's dump, both times.
//
// Run under -race this also hunts data races across the striped
// fast path, the multi-stripe path and the group-commit WAL.
func TestStripedConcurrencyProperty(t *testing.T) {
	for _, stripes := range []int{1, 4} {
		t.Run(fmt.Sprintf("stripes=%d", stripes), func(t *testing.T) {
			runStripedProperty(t, stripes)
		})
	}
}

func runStripedProperty(t *testing.T, stripes int) {
	const workers, famPerWorker, iters = 8, 2, 25
	dir := t.TempDir()
	walPath := filepath.Join(dir, "enact.wal")
	snapPath := filepath.Join(dir, "enact.snap")

	clk := vclock.NewSystem()
	schemas := core.NewSchemaRegistry()
	if err := schemas.Register(stripedProcess()); err != nil {
		t.Fatal(err)
	}
	contexts := core.NewRegistry(clk)
	eng := NewStriped(clk, schemas, core.NewDirectory(), contexts, stripes)
	wal, err := OpenWAL(walPath, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	eng.AttachWAL(wal, snapPath, -1) // compaction off: keep every record

	// famLog records one family's expected journal subsequence — its
	// owning worker's program order. Workers own disjoint families, so
	// no famLog is written concurrently.
	type famLog struct {
		fam string
		ops []string
	}
	logs := make([]*famLog, workers*famPerWorker)
	for i := range logs {
		pi, err := eng.StartProcess("StripeFam", StartOptions{Initiator: "op"})
		if err != nil {
			t.Fatal(err)
		}
		logs[i] = &famLog{fam: pi.ID(), ops: []string{"start_process"}}
	}

	errCh := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		mine := logs[w*famPerWorker : (w+1)*famPerWorker]
		wg.Add(1)
		go func(w int, mine []*famLog) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				fl := mine[i%len(mine)]
				ai, err := eng.Instantiate(fl.fam, "Step", "op")
				if err != nil {
					errCh <- err
					return
				}
				fl.ops = append(fl.ops, "instantiate "+ai.ID)
				checkReads(t, eng, "op")
				if err := eng.Start(ai.ID, "op"); err != nil {
					errCh <- err
					return
				}
				fl.ops = append(fl.ops, "start "+ai.ID)
				checkReads(t, eng, "op")
				if err := eng.Complete(ai.ID, "op"); err != nil {
					errCh <- err
					return
				}
				fl.ops = append(fl.ops, "complete "+ai.ID)
				checkReads(t, eng, "op")
				if i%3 == 0 {
					ctxID, ok := eng.ContextID(fl.fam, "sc")
					if !ok {
						errCh <- fmt.Errorf("family %s has no sc context", fl.fam)
						return
					}
					val := w*1000 + i
					if err := contexts.SetField(ctxID, "Tally", val); err != nil {
						errCh <- err
						return
					}
					fl.ops = append(fl.ops, fmt.Sprintf("set_field %s Tally %d", ctxID, val))
				}
			}
		}(w, mine)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}

	live := dump(eng)
	liveWork := eng.Worklist("op")
	if err := eng.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	// Property 1: per-family journal order is program order.
	recs, scan, err := decodeWALRecords(walPath)
	if err != nil || scan.torn {
		t.Fatalf("decode journal: torn=%v err=%v", scan.torn, err)
	}
	wantRecords := 0
	for _, fl := range logs {
		wantRecords += len(fl.ops)
	}
	if len(recs) != wantRecords {
		t.Fatalf("journal has %d records, want %d", len(recs), wantRecords)
	}
	got := make(map[string][]string)
	for i := range recs {
		rec := &recs[i]
		if !rec.V2 {
			t.Fatalf("record %d (%s) is not v2", i, rec.Kind)
		}
		if rec.Fam == "" {
			t.Fatalf("record %d (%s) has no family root", i, rec.Kind)
		}
		switch rec.Kind {
		case walStartProcess:
			got[rec.Fam] = append(got[rec.Fam], "start_process")
		case walInstantiate:
			if len(rec.AIDs) != 1 {
				t.Fatalf("instantiate record %d drew %d activity ids", i, len(rec.AIDs))
			}
			got[rec.Fam] = append(got[rec.Fam], fmt.Sprintf("instantiate a-%d", rec.AIDs[0]))
		case walStart:
			got[rec.Fam] = append(got[rec.Fam], "start "+rec.Act)
		case walComplete:
			got[rec.Fam] = append(got[rec.Fam], "complete "+rec.Act)
		case walSetField:
			v, err := rec.Value.Decode()
			if err != nil {
				t.Fatalf("record %d: decode value: %v", i, err)
			}
			got[rec.Fam] = append(got[rec.Fam], fmt.Sprintf("set_field %s %s %v", rec.Ctx, rec.Field, v))
		default:
			t.Fatalf("unexpected record kind %q at %d", rec.Kind, i)
		}
	}
	for _, fl := range logs {
		if len(got[fl.fam]) != len(fl.ops) {
			t.Fatalf("family %s: journal has %d records, program order has %d",
				fl.fam, len(got[fl.fam]), len(fl.ops))
		}
		for i, want := range fl.ops {
			if got[fl.fam][i] != want {
				t.Fatalf("family %s: journal record %d = %q, program order says %q",
					fl.fam, i, got[fl.fam][i], want)
			}
		}
	}

	// Properties 2+3: sequential (stripes=1) and parallel-lane
	// (stripes=4) replay of the same journal both reconstruct the live
	// state exactly — v2 records re-draw the very ids the concurrent run
	// drew, so the dumps are byte-identical.
	for _, rs := range []int{1, 4} {
		clk2 := vclock.NewSystem()
		sch2 := core.NewSchemaRegistry()
		if err := sch2.Register(stripedProcess()); err != nil {
			t.Fatal(err)
		}
		g := NewStriped(clk2, sch2, core.NewDirectory(), core.NewRegistry(clk2), rs)
		stats, err := g.Recover(snapPath, walPath)
		if err != nil {
			t.Fatalf("recover with %d stripes: %v", rs, err)
		}
		if stats.Failed != 0 || stats.TornTail || stats.Replayed != wantRecords {
			t.Fatalf("recover with %d stripes: stats = %+v, want %d replayed", rs, stats, wantRecords)
		}
		if rs > 1 && stats.Lanes != rs {
			t.Fatalf("recover with %d stripes replayed in %d lanes, want the parallel path", rs, stats.Lanes)
		}
		checkReads(t, g, "op")
		if got := g.Worklist("op"); !reflect.DeepEqual(got, liveWork) {
			t.Errorf("recovery with %d stripes: Worklist = %v, live engine's was %v", rs, got, liveWork)
		}
		if d := dump(g); d != live {
			t.Errorf("recovery with %d stripes diverged from live state:\n--- live ---\n%s--- recovered ---\n%s",
				rs, live, d)
		}
	}
}
