package fs

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"

	"github.com/mcc-cmi/cmi/internal/wire"
)

// ErrInjected marks every error produced by a Fault filesystem, so
// tests can tell an injected failure from a real one.
var ErrInjected = errors.New("fs: injected fault")

// injected wraps a syscall errno so errors.Is matches both ErrInjected
// and the errno (e.g. syscall.ENOSPC).
type injected struct {
	op    string
	path  string
	errno error
}

func (e *injected) Error() string {
	return fmt.Sprintf("fs: injected %s fault on %s: %v", e.op, e.path, e.errno)
}

func (e *injected) Unwrap() []error { return []error{ErrInjected, e.errno} }

// FaultConfig is a deterministic disk-fault schedule. Ordinals are
// 1-based and count calls across the whole filesystem (all files), so
// a given config and a given workload always hit the same call site.
// Zero values disable the corresponding fault.
type FaultConfig struct {
	// FailSyncAt makes the Nth File.Sync call return an injected EIO.
	FailSyncAt uint64
	// ShortWriteAt makes the Nth File.Write call write only half its
	// buffer and return an injected EIO.
	ShortWriteAt uint64
	// ENOSPCAfter makes every write past this many total written bytes
	// fail with ENOSPC (the bytes that fit are still written — a short
	// write, exactly like a filling disk).
	ENOSPCAfter int64
	// FailRenameAt makes the Nth Rename call fail with an injected
	// EIO, leaving the source file in place — the "crash between
	// tmp-write and link" window.
	FailRenameAt uint64
	// CorruptAtSync flips one byte inside an already-committed frame
	// of the file being synced, at the Nth Sync call (which then
	// succeeds) — deterministic bit-rot inside durable history.
	CorruptAtSync uint64
}

// String renders the config in the spec syntax ParseFaults accepts.
func (c FaultConfig) String() string {
	var parts []string
	if c.FailSyncAt > 0 {
		parts = append(parts, "sync-fail@"+strconv.FormatUint(c.FailSyncAt, 10))
	}
	if c.ShortWriteAt > 0 {
		parts = append(parts, "short-write@"+strconv.FormatUint(c.ShortWriteAt, 10))
	}
	if c.ENOSPCAfter > 0 {
		parts = append(parts, "enospc@"+strconv.FormatInt(c.ENOSPCAfter, 10))
	}
	if c.FailRenameAt > 0 {
		parts = append(parts, "rename-fail@"+strconv.FormatUint(c.FailRenameAt, 10))
	}
	if c.CorruptAtSync > 0 {
		parts = append(parts, "corrupt@"+strconv.FormatUint(c.CorruptAtSync, 10))
	}
	return strings.Join(parts, ",")
}

// Zero reports whether no fault is armed.
func (c FaultConfig) Zero() bool { return c == FaultConfig{} }

// ParseFaults parses a comma-separated disk-fault spec, the syntax of
// the cmid -fs-faults flag and CMI_FS_FAULTS environment variable:
//
//	sync-fail@N     fail the Nth fsync
//	short-write@N   short-write the Nth write
//	enospc@K        ENOSPC after K total written bytes
//	rename-fail@N   lose the Nth rename
//	corrupt@N       flip a committed byte at the Nth fsync
//
// The empty string parses to the zero (disabled) config.
func ParseFaults(spec string) (FaultConfig, error) {
	var c FaultConfig
	if strings.TrimSpace(spec) == "" {
		return c, nil
	}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		kind, val, ok := strings.Cut(part, "@")
		if !ok {
			return c, fmt.Errorf("fs: fault %q: want kind@N", part)
		}
		n, err := strconv.ParseUint(val, 10, 63)
		if err != nil || n == 0 {
			return c, fmt.Errorf("fs: fault %q: bad ordinal %q", part, val)
		}
		switch kind {
		case "sync-fail":
			c.FailSyncAt = n
		case "short-write":
			c.ShortWriteAt = n
		case "enospc":
			c.ENOSPCAfter = int64(n)
		case "rename-fail":
			c.FailRenameAt = n
		case "corrupt":
			c.CorruptAtSync = n
		default:
			return c, fmt.Errorf("fs: unknown fault kind %q", kind)
		}
	}
	return c, nil
}

// Fault is a fault-injecting FS decorator: it passes everything
// through to the inner filesystem until a configured ordinal is
// reached, then injects exactly the configured failure. All counting
// is deterministic, so the same config over the same single-threaded
// workload always fails the same operation.
type Fault struct {
	inner FS
	cfg   FaultConfig

	syncs   atomic.Uint64
	writes  atomic.Uint64
	renames atomic.Uint64
	written atomic.Int64
}

// NewFault wraps inner with the fault schedule in cfg.
func NewFault(inner FS, cfg FaultConfig) *Fault {
	return &Fault{inner: Or(inner), cfg: cfg}
}

func (ff *Fault) inject(op, path string, errno error) error {
	stats.injected.Add(1)
	return &injected{op: op, path: path, errno: errno}
}

type faultFile struct {
	f  File
	ff *Fault
}

func (f *faultFile) Name() string { return f.f.Name() }

func (f *faultFile) Close() error { return f.f.Close() }

func (f *faultFile) Write(p []byte) (int, error) {
	ff := f.ff
	if n := ff.cfg.ShortWriteAt; n > 0 && ff.writes.Add(1) == n {
		half := len(p) / 2
		if half > 0 {
			if wn, err := f.f.Write(p[:half]); err != nil {
				return wn, err
			}
		}
		return half, ff.inject("write", f.f.Name(), syscall.EIO)
	}
	if k := ff.cfg.ENOSPCAfter; k > 0 {
		total := ff.written.Add(int64(len(p)))
		if over := total - k; over > 0 {
			fits := int64(len(p)) - over
			if fits < 0 {
				fits = 0
			}
			if fits > 0 {
				if wn, err := f.f.Write(p[:fits]); err != nil {
					return wn, err
				}
			}
			return int(fits), ff.inject("write", f.f.Name(), syscall.ENOSPC)
		}
	}
	return f.f.Write(p)
}

func (f *faultFile) Sync() error {
	ff := f.ff
	n := ff.syncs.Add(1)
	if n == ff.cfg.FailSyncAt {
		countSync(ErrInjected)
		return ff.inject("sync", f.f.Name(), syscall.EIO)
	}
	if n == ff.cfg.CorruptAtSync {
		// Bit-rot a committed frame of this very file, then let the
		// sync succeed: the damage is now durable history.
		if _, err := CorruptFrame(f.f.Name(), -1); err == nil {
			stats.injected.Add(1)
		}
	}
	return f.f.Sync()
}

// OpenAppend opens path for appending through the fault schedule.
func (ff *Fault) OpenAppend(path string) (File, error) {
	f, err := ff.inner.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return &faultFile{f: f, ff: ff}, nil
}

// Create truncates or creates path through the fault schedule.
func (ff *Fault) Create(path string) (File, error) {
	f, err := ff.inner.Create(path)
	if err != nil {
		return nil, err
	}
	return &faultFile{f: f, ff: ff}, nil
}

// WriteFile writes data through the fault schedule (one Create, one
// Write, one Close — so ENOSPC and short writes apply).
func (ff *Fault) WriteFile(path string, data []byte, perm os.FileMode) error {
	f, err := ff.Create(path)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// ReadFile reads the whole file (reads are never fault-injected).
func (ff *Fault) ReadFile(path string) ([]byte, error) { return ff.inner.ReadFile(path) }

// ReadDir lists the directory (never fault-injected, like reads).
func (ff *Fault) ReadDir(dir string) ([]os.DirEntry, error) { return ff.inner.ReadDir(dir) }

// Rename renames oldpath to newpath, or loses the Nth rename.
func (ff *Fault) Rename(oldpath, newpath string) error {
	if n := ff.cfg.FailRenameAt; n > 0 && ff.renames.Add(1) == n {
		return ff.inject("rename", newpath, syscall.EIO)
	}
	return ff.inner.Rename(oldpath, newpath)
}

// Remove deletes path.
func (ff *Fault) Remove(path string) error { return ff.inner.Remove(path) }

// MkdirAll creates path along with any missing parents.
func (ff *Fault) MkdirAll(path string, perm os.FileMode) error {
	return ff.inner.MkdirAll(path, perm)
}

// SyncDir fsyncs the directory.
func (ff *Fault) SyncDir(dir string) error { return ff.inner.SyncDir(dir) }

// CorruptFrame flips one byte inside the payload of a committed binary
// frame of the journal at path and returns the flipped offset: idx
// selects the frame (0-based), idx < 0 picks the middle one. It is the
// bit-rot primitive behind the corrupt@N fault and the chaos oracle's
// corrupt-journal-recover scenario; flipping any payload byte breaks
// that frame's CRC, so a scanner is guaranteed to stop there.
func CorruptFrame(path string, idx int) (int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	spans := wire.FrameSpans(data)
	if len(spans) == 0 {
		return 0, fmt.Errorf("fs: %s: no committed frames to corrupt", path)
	}
	if idx < 0 {
		idx = len(spans) / 2
	}
	if idx >= len(spans) {
		idx = len(spans) - 1
	}
	sp := spans[idx]
	if sp.PayloadLen == 0 {
		return 0, fmt.Errorf("fs: %s: frame %d has empty payload", path, idx)
	}
	off := sp.PayloadOff + int64(sp.PayloadLen)/2
	data[off] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return 0, err
	}
	return off, nil
}
