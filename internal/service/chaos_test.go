package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"laacad/internal/fault"
)

// Chaos harness: the daemon is run in a child process with a fault rule that
// SIGKILLs it on the Nth filesystem operation — any operation, so the sweep
// lands kills inside journal appends, fsyncs, rotations, compactions, and
// recovery itself. The parent then reopens the same journal in-process,
// retransmits every submission under its original ClientID (a real client
// whose ack was lost would do exactly this), drains the queue, and asserts
// the crash cost nothing: every acknowledged job survived with its identity,
// no ClientID maps to two jobs, nothing completed twice, and every result is
// bit-identical to an uninterrupted solo run.

const (
	chaosChildEnv = "LAACAD_CHAOS_CHILD" // guards the child-mode test
	chaosDirEnv   = "LAACAD_CHAOS_DIR"   // scratch dir shared with the parent
	chaosKillEnv  = "LAACAD_CHAOS_KILL"  // op number to die on (0: run clean)
)

// chaosSpecs is the deterministic mixed workload: paced low-priority jobs
// that get preempted, high-priority arrivals that do the preempting, and
// quick fillers. Every spec carries a ClientID so submission is idempotent.
func chaosSpecs() []JobSpec {
	specs := []JobSpec{
		{Scenario: testScenario(8, 40, 1e-9, 101), PaceMS: 3, Priority: 0},
		{Scenario: testScenario(8, 40, 1e-9, 102), PaceMS: 3, Priority: 0},
		{Scenario: testScenario(8, 4, 1e-3, 103), Priority: 5},
		{Scenario: testScenario(8, 4, 1e-3, 104), Priority: 5},
		{Scenario: testScenario(8, 6, 1e-3, 105), Priority: 1},
		{Scenario: testScenario(8, 4, 1e-3, 106), Priority: 9},
	}
	for i := range specs {
		specs[i].ClientID = fmt.Sprintf("chaos-%03d", i)
	}
	return specs
}

// TestChaosChild is the daemon side of the harness. It only runs when
// re-executed by TestChaosCrashRecovery with the guard env set: it opens a
// Server over the shared spool with the kill rule armed, submits the
// workload (recording each acknowledgment durably), and waits for the queue
// to drain — dying by SIGKILL somewhere along the way when the rule fires.
func TestChaosChild(t *testing.T) {
	if os.Getenv(chaosChildEnv) == "" {
		t.Skip("chaos child mode: driven by TestChaosCrashRecovery")
	}
	base := os.Getenv(chaosDirEnv)
	killOp, err := strconv.Atoi(os.Getenv(chaosKillEnv))
	if err != nil {
		t.Fatalf("bad %s: %v", chaosKillEnv, err)
	}
	var rules []fault.Rule
	if killOp > 0 {
		rules = append(rules, fault.Rule{N: int64(killOp), Crash: true})
	}
	inj := fault.NewInject(fault.OS{}, rules...)
	s, err := New(Config{
		SpoolDir: filepath.Join(base, "spool"),
		Pool:     2,
		FS:       inj,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	// The ack log lives beside the spool (inside it, the journal's recovery
	// would quarantine it as a foreign file) and is appended one complete
	// line per acknowledged submission. A line exists only after Submit
	// returned, i.e. after the journal fsynced the accepted job — so every
	// logged ack names a job the daemon promised to keep.
	acks, err := os.OpenFile(filepath.Join(base, "acks.txt"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatalf("open ack log: %v", err)
	}
	defer acks.Close()
	for _, spec := range chaosSpecs() {
		st, err := s.Submit(spec)
		if err != nil {
			t.Fatalf("submit %s: %v", spec.ClientID, err)
		}
		if _, err := fmt.Fprintf(acks, "%s %s\n", spec.ClientID, st.ID); err != nil {
			t.Fatalf("log ack: %v", err)
		}
		_ = acks.Sync()
	}
	waitFor(t, 60*time.Second, "child workload drained", func() bool {
		for _, st := range s.List() {
			if !st.State.Terminal() {
				return false
			}
		}
		return true
	})
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// Probe runs (killOp 0) report how many FS operations a clean pass
	// makes, so the parent can sample kill points across the whole range.
	if err := os.WriteFile(filepath.Join(base, "ops.txt"),
		[]byte(strconv.FormatInt(inj.Ops(), 10)), 0o644); err != nil {
		t.Fatalf("write op count: %v", err)
	}
}

// runChaosChild re-executes the test binary in child mode. It returns
// (killed, output): killed is true when the child died by SIGKILL, false when
// it ran the workload to completion; any other outcome fails the test.
func runChaosChild(t *testing.T, base string, killOp int) (bool, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestChaosChild$")
	cmd.Env = append(os.Environ(),
		chaosChildEnv+"=1",
		chaosDirEnv+"="+base,
		chaosKillEnv+"="+strconv.Itoa(killOp),
	)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	err := cmd.Run()
	if err == nil {
		return false, out.String()
	}
	var exitErr *exec.ExitError
	if errors.As(err, &exitErr) {
		if ws, ok := exitErr.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGKILL {
			return true, out.String()
		}
	}
	t.Fatalf("chaos child (kill op %d) failed for the wrong reason: %v\n%s", killOp, err, out.String())
	return false, ""
}

// readAcks parses the child's ack log into ClientID → job ID.
func readAcks(t *testing.T, base string) map[string]string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(base, "acks.txt"))
	if err != nil {
		if os.IsNotExist(err) {
			return nil // killed before the first ack
		}
		t.Fatalf("read ack log: %v", err)
	}
	acked := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if line == "" {
			continue
		}
		clientID, jobID, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed ack line %q", line)
		}
		acked[clientID] = jobID
	}
	return acked
}

func TestChaosCrashRecovery(t *testing.T) {
	trials := 100
	if testing.Short() {
		trials = 8
	}
	specs := chaosSpecs()

	// Uninterrupted references: the engine's determinism contract says every
	// recovered run must reproduce these bit-for-bit.
	refs := make(map[string]interface{}, len(specs))
	for _, spec := range specs {
		refs[spec.ClientID] = soloRun(t, spec.Scenario)
	}

	// Probe: one clean child pass measures the op-count range to sample.
	probe := t.TempDir()
	if killed, out := runChaosChild(t, probe, 0); killed {
		t.Fatalf("probe run was killed with no rule armed:\n%s", out)
	}
	opsData, err := os.ReadFile(filepath.Join(probe, "ops.txt"))
	if err != nil {
		t.Fatalf("probe op count: %v", err)
	}
	totalOps, err := strconv.ParseInt(strings.TrimSpace(string(opsData)), 10, 64)
	if err != nil || totalOps < 10 {
		t.Fatalf("implausible probe op count %q (err %v)", opsData, err)
	}
	t.Logf("probe: clean run makes %d FS ops; sweeping %d seeded kill points", totalOps, trials)

	rng := rand.New(rand.NewSource(20260808))
	kills := 0
	for trial := 0; trial < trials; trial++ {
		killOp := 1 + rng.Intn(int(totalOps))
		base := t.TempDir()
		killed, _ := runChaosChild(t, base, killOp)
		if killed {
			kills++
		}
		acked := readAcks(t, base)

		// Count the jobs the journal already holds as done before New starts
		// the recovered pool: a requeued job that pool finishes early must
		// count as completed by this instance, not as done at recovery.
		spool := filepath.Join(base, "spool")
		journaled, err := LoadJobs(spool)
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("trial %d (kill op %d): replay journal: %v", trial, killOp, err)
		}
		doneAtRecovery := 0
		for _, j := range journaled {
			if j.State == StateDone {
				doneAtRecovery++
			}
		}

		// Recover over the very journal the child was murdered on top of.
		s, err := New(Config{SpoolDir: spool, Pool: 2})
		if err != nil {
			t.Fatalf("trial %d (kill op %d): recovery: %v", trial, killOp, err)
		}
		// No acknowledged job may be lost: each one must come back under the
		// same identity it was acked with.
		for clientID, jobID := range acked {
			st, err := s.Status(jobID)
			if err != nil {
				t.Fatalf("trial %d (kill op %d): acked job %s (%s) lost: %v", trial, killOp, jobID, clientID, err)
			}
			if st.ClientID != clientID {
				t.Fatalf("trial %d (kill op %d): job %s recovered with ClientID %q, want %q", trial, killOp, jobID, st.ClientID, clientID)
			}
		}
		// The client's view: every ack was (maybe) lost, so retransmit the
		// whole workload. Idempotency must dedupe what survived and accept
		// the rest fresh.
		for _, spec := range specs {
			st, err := s.Submit(spec)
			if err != nil {
				t.Fatalf("trial %d (kill op %d): resubmit %s: %v", trial, killOp, spec.ClientID, err)
			}
			if want, ok := acked[spec.ClientID]; ok && st.ID != want {
				t.Fatalf("trial %d (kill op %d): resubmitting %s made a duplicate: got %s, want %s",
					trial, killOp, spec.ClientID, st.ID, want)
			}
		}
		waitFor(t, 60*time.Second, "recovered workload drained", func() bool {
			for _, st := range s.List() {
				if !st.State.Terminal() {
					return false
				}
			}
			return true
		})

		// Exactly one job per ClientID, every one done, every result
		// bit-identical to the uninterrupted reference.
		jobs := s.List()
		if len(jobs) != len(specs) {
			t.Fatalf("trial %d (kill op %d): %d jobs after recovery, want %d", trial, killOp, len(jobs), len(specs))
		}
		byClient := make(map[string]*JobStatus, len(jobs))
		for _, st := range jobs {
			if prev, dup := byClient[st.ClientID]; dup {
				t.Fatalf("trial %d (kill op %d): ClientID %s maps to both %s and %s", trial, killOp, st.ClientID, prev.ID, st.ID)
			}
			byClient[st.ClientID] = st
			if st.State != StateDone {
				t.Fatalf("trial %d (kill op %d): job %s (%s) ended %s (%s), want done",
					trial, killOp, st.ID, st.ClientID, st.State, st.Error)
			}
			res, err := s.Result(st.ID)
			if err != nil {
				t.Fatalf("trial %d (kill op %d): result of %s: %v", trial, killOp, st.ID, err)
			}
			if !reflect.DeepEqual(res, refs[st.ClientID]) {
				t.Fatalf("trial %d (kill op %d): job %s (%s) result differs from the uninterrupted run",
					trial, killOp, st.ID, st.ClientID)
			}
		}
		// No double-completion: this server instance completed exactly the
		// jobs that were not already done when it recovered the journal.
		snap := s.reg.Snapshot()
		if got, want := snap["service.jobs_completed"], int64(len(specs)-doneAtRecovery); got != want {
			t.Fatalf("trial %d (kill op %d): jobs_completed = %d, want %d (%d were already done at recovery)",
				trial, killOp, got, want, doneAtRecovery)
		}
		if err := s.Shutdown(context.Background()); err != nil {
			t.Fatalf("trial %d (kill op %d): shutdown: %v", trial, killOp, err)
		}
	}
	if kills == 0 {
		t.Fatal("no trial actually killed the child; the sweep proved nothing")
	}
	t.Logf("%d/%d trials died by SIGKILL and recovered clean", kills, trials)
}
