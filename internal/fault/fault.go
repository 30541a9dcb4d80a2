// Package fault is the deterministic fault-injection seam the service layer
// runs through. It defines two interfaces — FS over the filesystem operations
// the durable job journal performs, and Clock over time — plus
// implementations that pass straight through to the OS (OS, Wall) and
// implementations that misbehave on demand for tests:
//
//   - Inject wraps an FS and applies Rules: fail the Nth matching operation
//     with an error, tear a write after k bytes, or crash the whole process
//     (a real self-delivered SIGKILL, so no cleanup handler or buffered
//     flush softens the landing) at a named operation — which is exactly the
//     adversarial instant a crash-consistency test wants to own.
//   - Manual is a hand-advanced clock, so retry/backoff and deadline policy
//     run instantly and deterministically under test.
//
// Every rule is counted deterministically: operations are numbered in the
// order they reach the Inject layer, so a single-threaded workload replays
// the same fault at the same instant on every run, and a seeded chaos
// harness can sweep the crash point across the whole operation sequence.
package fault

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// File is the writable-file surface the journal needs: append bytes, force
// them to stable storage, close.
type File interface {
	io.Writer
	// Sync flushes the file's data to stable storage (fsync).
	Sync() error
	Close() error
}

// FS is the filesystem seam. All service-layer durability code performs its
// IO through an FS so tests can interpose failures at any single operation.
//
// Operation names, as seen by Inject rules: "mkdirall", "readdir",
// "readfile", "writefile", "rename", "remove", "create", "append", "write",
// "sync", "close", "truncate", "syncdir".
type FS interface {
	// MkdirAll creates dir and parents.
	MkdirAll(dir string, perm os.FileMode) error
	// ReadDir returns the names of dir's entries, sorted.
	ReadDir(dir string) ([]string, error)
	// ReadFile reads the whole file.
	ReadFile(path string) ([]byte, error)
	// WriteFile writes data to path in one operation (create/truncate).
	WriteFile(path string, data []byte, perm os.FileMode) error
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes path.
	Remove(path string) error
	// Create opens path for writing, truncating it if it exists.
	Create(path string) (File, error)
	// Append opens path for appending, creating it if needed.
	Append(path string) (File, error)
	// Truncate cuts path to size bytes.
	Truncate(path string, size int64) error
	// SyncDir fsyncs the directory itself, making renames/creates durable.
	SyncDir(dir string) error
}

// OS is the passthrough FS over the real filesystem.
type OS struct{}

// MkdirAll implements FS.
func (OS) MkdirAll(dir string, perm os.FileMode) error { return os.MkdirAll(dir, perm) }

// ReadDir implements FS.
func (OS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// ReadFile implements FS.
func (OS) ReadFile(path string) ([]byte, error) { return os.ReadFile(path) }

// WriteFile implements FS.
func (OS) WriteFile(path string, data []byte, perm os.FileMode) error {
	return os.WriteFile(path, data, perm)
}

// Rename implements FS.
func (OS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// Remove implements FS.
func (OS) Remove(path string) error { return os.Remove(path) }

// Create implements FS.
func (OS) Create(path string) (File, error) { return os.Create(path) }

// Append implements FS.
func (OS) Append(path string) (File, error) {
	return os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

// Truncate implements FS.
func (OS) Truncate(path string, size int64) error { return os.Truncate(path, size) }

// SyncDir implements FS.
func (OS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// ParseRule parses the wire form of one injection rule, the format the
// LAACAD_FAULT environment variable and chaos harnesses use:
//
//	fail:<op>:<n>         error the Nth operation matching op
//	crash:<op>:<n>        SIGKILL the process at the Nth matching operation
//	tear:<op>:<n>:<k>     on the Nth matching op, write only k bytes, then error
//	tearcrash:<op>:<n>:<k> write k bytes, then SIGKILL
//	tearbyte:<k>          tear the write stream at cumulative byte offset k,
//	                      then error (op is implicitly "write")
//
// op may be "" or "*" to match every operation.
func ParseRule(s string) (Rule, error) {
	parts := strings.Split(s, ":")
	bad := func() (Rule, error) { return Rule{}, fmt.Errorf("fault: bad rule %q", s) }
	atoi := func(v string) (int64, bool) {
		var n int64
		_, err := fmt.Sscanf(v, "%d", &n)
		return n, err == nil
	}
	norm := func(op string) string {
		if op == "*" {
			return ""
		}
		return op
	}
	switch parts[0] {
	case "fail", "crash":
		if len(parts) != 3 {
			return bad()
		}
		n, ok := atoi(parts[2])
		if !ok || n < 1 {
			return bad()
		}
		r := Rule{Op: norm(parts[1]), N: n}
		if parts[0] == "crash" {
			r.Crash = true
		} else {
			r.Err = fmt.Errorf("fault: injected failure (%s)", s)
		}
		return r, nil
	case "tear", "tearcrash":
		if len(parts) != 4 {
			return bad()
		}
		n, ok1 := atoi(parts[2])
		k, ok2 := atoi(parts[3])
		if !ok1 || !ok2 || n < 1 || k < 0 {
			return bad()
		}
		r := Rule{Op: norm(parts[1]), N: n, Tear: true, TearAt: int(k)}
		if parts[0] == "tearcrash" {
			r.Crash = true
		} else {
			r.Err = fmt.Errorf("fault: injected torn write (%s)", s)
		}
		return r, nil
	case "tearbyte":
		if len(parts) != 2 {
			return bad()
		}
		k, ok := atoi(parts[1])
		if !ok || k < 0 {
			return bad()
		}
		return Rule{Op: "write", TearByte: k + 1, Err: fmt.Errorf("fault: injected torn write (%s)", s)}, nil
	default:
		return bad()
	}
}

// FromEnv builds the rules armed in the named environment variable
// (comma-separated ParseRule forms). An empty or unset variable yields no
// rules. This is how a child daemon process in a chaos test — or a real
// laacadd started with LAACAD_FAULT set — arms its own faults.
func FromEnv(name string) ([]Rule, error) {
	v := os.Getenv(name)
	if v == "" {
		return nil, nil
	}
	var rules []Rule
	for _, part := range strings.Split(v, ",") {
		r, err := ParseRule(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		rules = append(rules, r)
	}
	return rules, nil
}

var _ FS = OS{}
var _ Clock = Wall{}
