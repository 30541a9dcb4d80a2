package fault

import (
	"errors"
	"os"
	"sync"
	"syscall"
)

// Rule arms one fault. A rule fires at most once, on the Nth operation whose
// name matches Op (1-based, counted per rule; Op "" matches every
// operation) — or, for TearByte rules, during whichever matching operation
// spans cumulative payload byte TearByte-1.
type Rule struct {
	// Op is the operation name to match ("write", "sync", "rename", ...);
	// empty matches all. See FS for the full vocabulary.
	Op string
	// N fires the rule on the Nth matching operation (1-based).
	N int64
	// TearByte, if positive, fires instead during the matching operation that
	// covers cumulative byte offset TearByte-1 of all matched operations'
	// payloads — writing only the bytes before the offset. This is how a
	// recovery matrix tears a journal at every byte.
	TearByte int64
	// Tear, for write-carrying operations, truncates the payload to TearAt
	// bytes before applying the consequence below.
	Tear   bool
	TearAt int
	// Consequence: Crash SIGKILLs the process (after any partial write
	// reached the disk); otherwise Err is returned from the operation.
	Crash bool
	Err   error
}

// Kill is the process-termination hook Crash rules use: a self-delivered
// SIGKILL, the closest a process can come to pulling its own power cord.
// Tests that must survive their own crash rule may substitute it.
var Kill = func() {
	_ = syscall.Kill(syscall.Getpid(), syscall.SIGKILL)
	select {} // unreachable: SIGKILL cannot be caught; park until the kernel reaps us
}

// Inject wraps an inner FS and applies Rules. Operations are counted under a
// lock, so concurrent callers see a consistent numbering (the order is the
// order operations reach the layer). The zero rule set passes everything
// through untouched.
type Inject struct {
	inner FS

	mu    sync.Mutex
	rules []*injectRule
	ops   int64
}

type injectRule struct {
	Rule
	matched int64 // matching ops seen so far
	bytes   int64 // cumulative payload bytes over matching ops (TearByte rules)
	fired   bool
}

// NewInject wraps inner with the given rules.
func NewInject(inner FS, rules ...Rule) *Inject {
	in := &Inject{inner: inner}
	for _, r := range rules {
		in.rules = append(in.rules, &injectRule{Rule: r})
	}
	return in
}

// Ops returns the number of operations that have reached the layer.
func (in *Inject) Ops() int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.ops
}

// check counts one operation and returns the consequence to apply:
// err != nil to fail, tearTo >= 0 to truncate the payload to tearTo bytes
// first, crash to die after writing. payload is the operation's write size
// (0 for non-writing ops).
func (in *Inject) check(op string, payload int) (tearTo int, crash bool, err error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.ops++
	tearTo = -1
	for _, r := range in.rules {
		if r.fired || (r.Op != "" && r.Op != op) {
			continue
		}
		r.matched++
		if r.TearByte > 0 {
			start := r.bytes
			r.bytes += int64(payload)
			if r.TearByte <= start || r.TearByte > start+int64(payload) {
				continue
			}
			r.fired = true
			return int(r.TearByte - 1 - start), r.Crash, tearErr(r)
		}
		if r.matched != r.N {
			continue
		}
		r.fired = true
		to := -1
		if r.Tear {
			to = r.TearAt
			if to > payload {
				to = payload
			}
			return to, r.Crash, tearErr(r)
		}
		return to, r.Crash, r.Err
	}
	return -1, false, nil
}

// tearErr guarantees a torn write carries an error consequence: a short
// write silently reported as success would violate the io.Writer contract
// and let the caller sail past the hole it just left on disk. (Crash rules
// keep a nil error — the process dies instead.)
func tearErr(r *injectRule) error {
	if r.Err != nil || r.Crash {
		return r.Err
	}
	return errors.New("fault: injected torn write")
}

// apply runs the real operation honoring a consequence from check.
func apply(tearTo int, crash bool, err error, run func() error) error {
	if tearTo < 0 && !crash && err == nil {
		return run()
	}
	if tearTo != 0 { // tearTo < 0 (no tear: full op) or a partial prefix
		_ = run()
	}
	if crash {
		Kill()
	}
	return err
}

// MkdirAll implements FS.
func (in *Inject) MkdirAll(dir string, perm os.FileMode) error {
	tearTo, crash, err := in.check("mkdirall", 0)
	return apply(tearTo, crash, err, func() error { return in.inner.MkdirAll(dir, perm) })
}

// ReadDir implements FS.
func (in *Inject) ReadDir(dir string) (names []string, _ error) {
	tearTo, crash, err := in.check("readdir", 0)
	e := apply(tearTo, crash, err, func() error {
		var rerr error
		names, rerr = in.inner.ReadDir(dir)
		return rerr
	})
	if e != nil {
		return nil, e
	}
	return names, nil
}

// ReadFile implements FS.
func (in *Inject) ReadFile(path string) (data []byte, _ error) {
	tearTo, crash, err := in.check("readfile", 0)
	e := apply(tearTo, crash, err, func() error {
		var rerr error
		data, rerr = in.inner.ReadFile(path)
		return rerr
	})
	if e != nil {
		return nil, e
	}
	return data, nil
}

// WriteFile implements FS. Tear rules truncate the written data.
func (in *Inject) WriteFile(path string, data []byte, perm os.FileMode) error {
	tearTo, crash, err := in.check("writefile", len(data))
	if tearTo >= 0 && tearTo < len(data) {
		data = data[:tearTo]
	}
	return apply(tearTo, crash, err, func() error { return in.inner.WriteFile(path, data, perm) })
}

// Rename implements FS.
func (in *Inject) Rename(oldpath, newpath string) error {
	tearTo, crash, err := in.check("rename", 0)
	return apply(tearTo, crash, err, func() error { return in.inner.Rename(oldpath, newpath) })
}

// Remove implements FS.
func (in *Inject) Remove(path string) error {
	tearTo, crash, err := in.check("remove", 0)
	return apply(tearTo, crash, err, func() error { return in.inner.Remove(path) })
}

// Create implements FS.
func (in *Inject) Create(path string) (File, error) {
	tearTo, crash, err := in.check("create", 0)
	var f File
	e := apply(tearTo, crash, err, func() error {
		var cerr error
		f, cerr = in.inner.Create(path)
		return cerr
	})
	if e != nil {
		return nil, e
	}
	return &injectFile{in: in, f: f}, nil
}

// Append implements FS.
func (in *Inject) Append(path string) (File, error) {
	tearTo, crash, err := in.check("append", 0)
	var f File
	e := apply(tearTo, crash, err, func() error {
		var aerr error
		f, aerr = in.inner.Append(path)
		return aerr
	})
	if e != nil {
		return nil, e
	}
	return &injectFile{in: in, f: f}, nil
}

// Truncate implements FS.
func (in *Inject) Truncate(path string, size int64) error {
	tearTo, crash, err := in.check("truncate", 0)
	return apply(tearTo, crash, err, func() error { return in.inner.Truncate(path, size) })
}

// SyncDir implements FS.
func (in *Inject) SyncDir(dir string) error {
	tearTo, crash, err := in.check("syncdir", 0)
	return apply(tearTo, crash, err, func() error { return in.inner.SyncDir(dir) })
}

// injectFile routes a File's write/sync/close through the rule engine.
type injectFile struct {
	in *Inject
	f  File
}

// Write implements File. A tear rule writes only the prefix before the
// consequence (error or crash) lands — the definition of a torn write.
func (w *injectFile) Write(p []byte) (int, error) {
	tearTo, crash, err := w.in.check("write", len(p))
	if tearTo >= 0 && tearTo < len(p) {
		if tearTo > 0 {
			if n, werr := w.f.Write(p[:tearTo]); werr != nil {
				return n, werr
			}
			// A torn write that crashes must reach the platters first, or the
			// "tear" would be silently absorbed by the page cache on restart
			// of an in-process test double.
			_ = w.f.Sync()
		}
		if crash {
			Kill()
		}
		return tearTo, err
	}
	if crash || err != nil {
		if crash {
			Kill()
		}
		return 0, err
	}
	return w.f.Write(p)
}

// Sync implements File.
func (w *injectFile) Sync() error {
	tearTo, crash, err := w.in.check("sync", 0)
	return apply(tearTo, crash, err, func() error { return w.f.Sync() })
}

// Close implements File.
func (w *injectFile) Close() error {
	tearTo, crash, err := w.in.check("close", 0)
	return apply(tearTo, crash, err, func() error { return w.f.Close() })
}

var _ FS = (*Inject)(nil)
