package fsck

import (
	"os"
	"path/filepath"
	"testing"

	"github.com/mcc-cmi/cmi/internal/delivery"
	"github.com/mcc-cmi/cmi/internal/federation"
	"github.com/mcc-cmi/cmi/internal/fs"
	"github.com/mcc-cmi/cmi/internal/system"
	"github.com/mcc-cmi/cmi/internal/vclock"
)

const testSpec = `
process Solo {
    activity Work role org Worker
}
awareness Done on Solo {
    root = activity Work to (Completed)
    deliver org Worker
    describe "done"
}
`

// buildStateDir produces a realistic state directory holding every
// artifact kind fsck understands: a persisted spec, an enactment WAL
// with committed records, a compaction snapshot, a participant delivery
// journal, and a federation spool with pending entries.
func buildStateDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	s, err := system.New(system.Config{Clock: vclock.NewVirtual(), StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadSpec(testSpec); err != nil {
		t.Fatal(err)
	}
	if err := s.AddHuman("w1", "Worker One"); err != nil {
		t.Fatal(err)
	}
	if err := s.AssignRole("Worker", "w1"); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := s.StartProcess("Solo", "w1"); err != nil {
			t.Fatal(err)
		}
	}
	// Snapshot mid-way so both the snapshot and post-snapshot WAL
	// records exist.
	if err := s.Coordination().Compact(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := s.StartProcess("Solo", "w1"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 6; i++ {
		if _, err := s.Store().Enqueue("w1", delivery.Notification{Schema: "Done", Description: "n"}); err != nil {
			t.Fatal(err)
		}
	}
	// A spool with pending entries: the remote is unreachable, so the
	// pushes stay journaled.
	fwd, err := federation.NewForwarder(federation.ForwarderConfig{
		Client:    federation.NewRemoteClient("http://127.0.0.1:9", nil),
		SpoolPath: filepath.Join(dir, "spool.journal"),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := fwd.Forward("bob", delivery.Notification{Schema: "Done", Description: "x"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := fwd.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

func findFile(t *testing.T, r *Report, path string) FileReport {
	t.Helper()
	for _, f := range r.Files {
		if f.Path == path {
			return f
		}
	}
	t.Fatalf("no report for %s in %+v", path, r.Files)
	return FileReport{}
}

// specFile returns the persisted spec's relative path.
func specFile(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(dir, "specs"))
	if err != nil || len(entries) == 0 {
		t.Fatalf("no persisted specs: %v", err)
	}
	return filepath.Join("specs", entries[0].Name())
}

func TestCleanStateDirChecksClean(t *testing.T) {
	dir := buildStateDir(t)
	r, err := Check(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Clean() || r.Damaged != 0 {
		t.Fatalf("fresh state dir not clean: %+v", r.Files)
	}
	for _, want := range []struct{ path, kind string }{
		{"enact.wal", KindWAL},
		{"enact.snap", KindSnapshot},
		{"w1.jsonl", KindJournal},
		{"spool.journal", KindSpool},
		{specFile(t, dir), KindSpec},
	} {
		f := findFile(t, r, want.path)
		if f.Kind != want.kind || f.Damaged {
			t.Errorf("%s: kind=%s damaged=%v, want kind=%s clean", want.path, f.Kind, f.Damaged, want.kind)
		}
	}
	if r.SnapshotSeq <= 0 {
		t.Errorf("snapshot seq high-water not reported: %+v", r)
	}
}

func TestCheckMissingDirErrors(t *testing.T) {
	if _, err := Check(filepath.Join(t.TempDir(), "nope"), Options{}); err == nil {
		t.Fatal("want error for missing state dir")
	}
}

// TestDetectsEveryInjectedCorruption is the detection guarantee behind
// the chaos oracle's disk-fault invariant: each subtest injects one
// kind of damage into one artifact and fsck MUST flag exactly that
// file. Frame corruption uses the same fs.CorruptFrame primitive the
// fault filesystem's corrupt@N schedule uses.
func TestDetectsEveryInjectedCorruption(t *testing.T) {
	cases := []struct {
		name    string
		inject  func(t *testing.T, dir string) string // returns the path that must be flagged
		corrupt bool                                  // expect mid-journal classification
	}{
		{"wal-mid-journal-bitrot", func(t *testing.T, dir string) string {
			if _, err := fs.CorruptFrame(filepath.Join(dir, "enact.wal"), 1); err != nil {
				t.Fatal(err)
			}
			return "enact.wal"
		}, true},
		{"delivery-journal-bitrot", func(t *testing.T, dir string) string {
			if _, err := fs.CorruptFrame(filepath.Join(dir, "w1.jsonl"), 2); err != nil {
				t.Fatal(err)
			}
			return "w1.jsonl"
		}, true},
		{"spool-bitrot", func(t *testing.T, dir string) string {
			if _, err := fs.CorruptFrame(filepath.Join(dir, "spool.journal"), 0); err != nil {
				t.Fatal(err)
			}
			return "spool.journal"
		}, true},
		{"snapshot-garbage", func(t *testing.T, dir string) string {
			if err := os.WriteFile(filepath.Join(dir, "enact.snap"), []byte("{broken"), 0o644); err != nil {
				t.Fatal(err)
			}
			return "enact.snap"
		}, false},
		{"spec-garbage", func(t *testing.T, dir string) string {
			rel := specFile(t, dir)
			if err := os.WriteFile(filepath.Join(dir, rel), []byte("process {{{"), 0o644); err != nil {
				t.Fatal(err)
			}
			return rel
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := buildStateDir(t)
			flagged := tc.inject(t, dir)
			r, err := Check(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if r.Damaged != 1 {
				t.Fatalf("want exactly the injected damage flagged, got %d damaged: %+v", r.Damaged, r.Files)
			}
			f := findFile(t, r, flagged)
			if !f.Damaged {
				t.Fatalf("%s not flagged: %+v", flagged, f)
			}
			if f.Corrupt != tc.corrupt {
				t.Fatalf("%s: corrupt=%v, want %v (%s)", flagged, f.Corrupt, tc.corrupt, f.Detail)
			}
		})
	}
}

// TestStrayTmpReported: a leftover .tmp from an interrupted atomic
// replacement fails Clean and is removed under Quarantine.
func TestStrayTmpReported(t *testing.T) {
	dir := buildStateDir(t)
	stray := filepath.Join(dir, "enact.snap.tmp")
	if err := os.WriteFile(stray, []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Check(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Clean() {
		t.Fatal("stray tmp not reported")
	}
	f := findFile(t, r, "enact.snap.tmp")
	if f.Kind != KindTmp || f.Damaged {
		t.Fatalf("stray tmp misclassified: %+v", f)
	}
	r, err = Check(dir, Options{Quarantine: true})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Clean() {
		t.Fatalf("quarantine left the dir unclean: %+v", r.Files)
	}
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Fatal("stray tmp not removed")
	}
}

// TestQuarantineRepairsJournalsAndDomainReboots is the repair
// round-trip: corrupt all three durable logs mid-journal, quarantine,
// verify the evidence files exist and a re-check is damage-free, then
// boot a real system on the repaired directory and verify it serves
// healthy (no corrupt flag, no poisoned logs).
func TestQuarantineRepairsJournalsAndDomainReboots(t *testing.T) {
	dir := buildStateDir(t)
	for _, target := range []struct {
		file string
		idx  int
	}{{"enact.wal", 1}, {"w1.jsonl", 2}, {"spool.journal", 0}} {
		if _, err := fs.CorruptFrame(filepath.Join(dir, target.file), target.idx); err != nil {
			t.Fatal(err)
		}
	}
	r, err := Check(dir, Options{Quarantine: true})
	if err != nil {
		t.Fatal(err)
	}
	if r.Damaged != 3 {
		t.Fatalf("want 3 damaged journals, got %d: %+v", r.Damaged, r.Files)
	}
	for _, name := range []string{"enact.wal", "w1.jsonl", "spool.journal"} {
		f := findFile(t, r, name)
		if !f.Quarantined {
			t.Fatalf("%s not quarantined: %s", name, f.Detail)
		}
		if _, err := os.Stat(filepath.Join(dir, name+".quarantine")); err != nil {
			t.Fatalf("%s.quarantine evidence missing: %v", name, err)
		}
	}

	// The .quarantine siblings are not durable-log artifacts; a
	// re-check of the repaired journals finds no damage.
	r, err = Check(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Damaged != 0 {
		t.Fatalf("repaired dir still damaged: %+v", r.Files)
	}

	s, err := system.New(system.Config{Clock: vclock.NewVirtual(), StateDir: dir})
	if err != nil {
		t.Fatalf("boot on repaired dir: %v", err)
	}
	defer s.Close()
	if rec := s.Recovery(); rec.Corrupt {
		t.Fatalf("repaired WAL still reads corrupt: %+v", rec)
	}
	if err := s.AddHuman("w1", "Worker One"); err != nil {
		t.Fatal(err)
	}
	if err := s.AssignRole("Worker", "w1"); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if h := s.Health(); !h.Healthy {
		t.Fatalf("repaired domain unhealthy: %+v", h)
	}
	// The repaired WAL accepts fresh appends again.
	if _, err := s.StartProcess("Solo", "w1"); err != nil {
		t.Fatalf("write on repaired dir: %v", err)
	}
	// The repaired spool reopens for the forwarder.
	fwd, err := federation.NewForwarder(federation.ForwarderConfig{
		Client:    federation.NewRemoteClient("http://127.0.0.1:9", nil),
		SpoolPath: filepath.Join(dir, "spool.journal"),
	})
	if err != nil {
		t.Fatalf("reopen repaired spool: %v", err)
	}
	fwd.Close()
}
