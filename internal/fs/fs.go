// Package fs is the filesystem seam beneath every durable artifact in
// the repository: the delivery journals, the enactment WAL and
// snapshot, the federation spool, persisted specs, and the small
// control files the daemon writes (the -addr-file).
//
// Durable-log code never opens, renames or fsyncs files through the os
// package directly — tools/fscheck enforces the seam — it goes through
// an FS. Production uses OS, the passthrough implementation. Tests and
// the chaos oracle substitute a Fault FS (see fault.go) that injects
// the classic storage failure modes: failed fsyncs, short writes,
// ENOSPC, lost renames, bit-rot inside committed frames. The injection
// keeps the recovery policies honest; the policies themselves are:
//
//   - a failed fsync permanently poisons the log (fsyncgate: the
//     kernel may drop the dirty pages on error, so retrying Sync on
//     the same descriptor can falsely succeed — callers must stop
//     writing and fail loudly instead);
//   - every tmp+write+rename replacement fsyncs the parent directory,
//     otherwise the new link itself may not survive a crash
//     (ReplaceFile bundles the whole dance);
//   - mid-journal corruption stops replay at the first bad record and
//     is surfaced explicitly, never silently truncated.
package fs

import (
	"os"
	"path/filepath"
	"sync/atomic"
)

// File is the write-side handle the durable logs use: append or
// rewrite, fsync, close. Reads go through FS.ReadFile.
type File interface {
	// Write appends or writes bytes. A short write leaves the durable
	// suffix of the file unknown; callers must treat it like a failed
	// Sync.
	Write(p []byte) (int, error)
	// Sync flushes the file to stable storage (fsync). After a Sync
	// error the durable state of previously written bytes is UNKNOWN;
	// per fsyncgate semantics the caller must not retry on the same
	// handle and must poison the log.
	Sync() error
	// Close closes the handle. Close does not imply Sync.
	Close() error
	// Name returns the path the handle was opened with.
	Name() string
}

// FS is the filesystem the durable logs run on.
type FS interface {
	// OpenAppend opens path for appending, creating it if absent.
	OpenAppend(path string) (File, error)
	// Create truncates or creates path for writing.
	Create(path string) (File, error)
	// WriteFile writes data to path in one call. No fsync is implied.
	WriteFile(path string, data []byte, perm os.FileMode) error
	// ReadFile reads the whole file.
	ReadFile(path string) ([]byte, error)
	// ReadDir lists the directory, sorted by file name.
	ReadDir(dir string) ([]os.DirEntry, error)
	// Rename renames oldpath to newpath. The new link is not durable
	// until the parent directory is fsynced; pair with SyncDir.
	Rename(oldpath, newpath string) error
	// Remove deletes path.
	Remove(path string) error
	// MkdirAll creates path along with any missing parents.
	MkdirAll(path string, perm os.FileMode) error
	// SyncDir fsyncs the directory itself, making renames and creates
	// inside it durable.
	SyncDir(dir string) error
}

// OS is the production passthrough FS.
var OS FS = osFS{}

// Or returns fsys, or the production OS filesystem when fsys is nil —
// the idiom every durable log uses to default its options.
func Or(fsys FS) FS {
	if fsys == nil {
		return OS
	}
	return fsys
}

type osFS struct{}

type osFile struct{ *os.File }

func (f osFile) Sync() error {
	err := f.File.Sync()
	countSync(err)
	return err
}

func (osFS) OpenAppend(path string) (File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

func (osFS) Create(path string) (File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

func (osFS) WriteFile(path string, data []byte, perm os.FileMode) error {
	return os.WriteFile(path, data, perm)
}

func (osFS) ReadFile(path string) ([]byte, error) { return os.ReadFile(path) }

func (osFS) ReadDir(dir string) ([]os.DirEntry, error) { return os.ReadDir(dir) }

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(path string) error { return os.Remove(path) }

func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	countDirSync(err)
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// ---------------------------------------------------------------------
// Process-wide storage counters, exported to the metrics registry as
// cmi_fs_* series (see system.New). The counters are package-level so
// every FS implementation — passthrough or fault-injecting — feeds the
// same gauges.

var stats struct {
	syncs        atomic.Uint64
	syncFailures atomic.Uint64
	dirSyncs     atomic.Uint64
	injected     atomic.Uint64
}

func countSync(err error) {
	stats.syncs.Add(1)
	if err != nil {
		stats.syncFailures.Add(1)
	}
}

func countDirSync(err error) {
	stats.dirSyncs.Add(1)
	if err != nil {
		stats.syncFailures.Add(1)
	}
}

// Syncs returns the process-wide count of file fsync calls.
func Syncs() uint64 { return stats.syncs.Load() }

// SyncFailures returns the process-wide count of failed file and
// directory fsyncs (injected faults included).
func SyncFailures() uint64 { return stats.syncFailures.Load() }

// DirSyncs returns the process-wide count of directory fsync calls.
func DirSyncs() uint64 { return stats.dirSyncs.Load() }

// Injected returns the process-wide count of faults injected by Fault
// filesystems (always zero in production).
func Injected() uint64 { return stats.injected.Load() }

// ---------------------------------------------------------------------
// Helpers shared by every tmp+rename call site.

// ReplaceFile atomically replaces path with data: write path.tmp,
// optionally fsync it, rename over path, and — when sync is set —
// fsync the parent directory so the new link survives a crash. The tmp
// file is removed on every failure path, so a damaged replacement
// never leaves a stray .tmp to confuse the next open. A nil fsys means
// the production OS filesystem.
func ReplaceFile(fsys FS, path string, data []byte, sync bool) error {
	fsys = Or(fsys)
	tmp := path + ".tmp"
	f, err := fsys.Create(tmp)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil && sync {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fsys.Remove(tmp)
		return err
	}
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp)
		return err
	}
	if sync {
		return fsys.SyncDir(filepath.Dir(path))
	}
	return nil
}
