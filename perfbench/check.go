package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"

	"laacad/internal/core"
	"laacad/internal/coverage"
	"laacad/internal/region"
)

// coverageResolution is the fixed sampling grid of every k-coverage check.
const coverageResolution = 100

// digest fingerprints the bits of a Result's Positions, Radii, Trace and
// Messages — everything the bit-identity contract covers. Two results with
// the same digest are the same deployment, bit for bit.
func digest(res *core.Result) string {
	h := sha256.New()
	var buf [8]byte
	u := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	f := func(v float64) { u(math.Float64bits(v)) }
	u(uint64(len(res.Positions)))
	for _, p := range res.Positions {
		f(p.X)
		f(p.Y)
	}
	u(uint64(len(res.Radii)))
	for _, r := range res.Radii {
		f(r)
	}
	u(uint64(len(res.Trace)))
	for _, t := range res.Trace {
		u(uint64(t.Round))
		f(t.MaxCircumradius)
		f(t.MinCircumradius)
		f(t.MaxRhat)
		f(t.MaxMove)
		u(uint64(t.Moved))
		u(uint64(t.Messages))
	}
	u(uint64(res.Messages))
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// chain folds a sequence of digests into one, so a whole failure sequence is
// pinned by a single value.
type chain struct{ h hash.Hash }

func newChain() *chain { return &chain{h: sha256.New()} }

func (c *chain) add(d string) { c.h.Write([]byte(d)) }

func (c *chain) sum() string { return hex.EncodeToString(c.h.Sum(nil)[:12]) }

// checker is the correctness gate. Results are registered as they arrive and
// verified after the timed window: every distinct result (by digest) is
// checked once for k-coverage, and every operation counts as failed if any of
// its checks misses.
type checker struct {
	tr       *tracer
	attempts int
	failures []string
	pending  map[string]pendingCheck
	covered  map[string]bool
}

type pendingCheck struct {
	label string
	res   *core.Result
	reg   *region.Region
	k     int
}

func newChecker(tr *tracer) *checker {
	return &checker{tr: tr, pending: map[string]pendingCheck{}, covered: map[string]bool{}}
}

// op counts one attempted operation. A non-nil err, or a failed check added
// via fail, marks it failed.
func (c *checker) op(label string, err error) bool {
	c.attempts++
	if err != nil {
		c.fail("%s: %v", label, err)
		return false
	}
	return true
}

func (c *checker) fail(format string, args ...any) {
	c.failures = append(c.failures, fmt.Sprintf(format, args...))
}

// result registers a finished operation's result for the k-coverage gate and,
// when wantConverged, the convergence gate. It returns the result's digest.
func (c *checker) result(label string, res *core.Result, reg *region.Region, k int, wantConverged bool) string {
	if wantConverged && !res.Converged {
		c.fail("%s: not converged after %d rounds", label, res.Rounds)
	}
	d := digest(res)
	if _, seen := c.covered[d]; !seen {
		if _, queued := c.pending[d]; !queued {
			c.pending[d] = pendingCheck{label: label, res: res, reg: reg, k: k}
		}
	}
	return d
}

// expect compares a digest against its reference.
func (c *checker) expect(label, got, want string) {
	if got != want {
		c.fail("%s: digest %s, reference %s", label, got, want)
	}
}

// verifyCoverage runs coverage.Verify over every distinct result registered
// since the last call.
func (c *checker) verifyCoverage() {
	for d, p := range c.pending {
		id := c.tr.begin("coverage.verify", 0, p.label)
		rep := coverage.Verify(p.res.Positions, p.res.Radii, p.reg, coverageResolution)
		c.tr.end(id)
		ok := rep.KCovered(p.k)
		c.covered[d] = ok
		if !ok {
			c.fail("%s: not %d-covered (min depth %d over %d samples)", p.label, p.k, rep.MinDepth, rep.Samples)
		}
		delete(c.pending, d)
	}
}
