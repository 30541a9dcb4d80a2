package service

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"laacad/internal/fault"
)

// Retry/deadline/idempotency policy tests. Every test here runs on a
// fault.Manual clock, so backoff schedules that would span seconds of wall
// time execute instantly — and deterministically.

func newPolicyServer(t *testing.T, pool int, clock fault.Clock, hook func(id string, attempt int) error) *Server {
	t.Helper()
	s, err := New(Config{
		SpoolDir: t.TempDir(),
		Pool:     pool,
		Clock:    clock,
		RunHook:  hook,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s
}

func TestIdempotentSubmit(t *testing.T) {
	s := newTestServer(t, 1)
	spec := JobSpec{Scenario: testScenario(8, 4, 1e-3, 7), ClientID: "client-abc"}
	a, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// The retried POST of the same ClientID must not create a second job —
	// even if the rest of the spec drifted.
	b, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.ID != b.ID {
		t.Fatalf("resubmission created %s, want the original %s", b.ID, a.ID)
	}
	if len(s.List()) != 1 {
		t.Fatalf("jobs = %d, want 1", len(s.List()))
	}
	if got := s.reg.Snapshot()["service.jobs_accepted"]; got != 1 {
		t.Fatalf("jobs_accepted = %d, want 1", got)
	}
	waitFor(t, 30*time.Second, "job done", func() bool { return state(t, s, a.ID) == StateDone })

	// A different ClientID is a different job.
	other := spec
	other.ClientID = "client-xyz"
	c, err := s.Submit(other)
	if err != nil {
		t.Fatal(err)
	}
	if c.ID == a.ID {
		t.Fatal("distinct ClientIDs must map to distinct jobs")
	}
}

func TestIdempotentSubmitSurvivesRestart(t *testing.T) {
	spool := t.TempDir()
	spec := JobSpec{Scenario: testScenario(8, 4, 1e-3, 9), ClientID: "client-restart"}
	s1, err := New(Config{SpoolDir: spool, Pool: 1})
	if err != nil {
		t.Fatal(err)
	}
	a, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 30*time.Second, "job done", func() bool { return state(t, s1, a.ID) == StateDone })
	if err := s1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	// The client never saw the ack and retries against the restarted daemon:
	// it must get the original (already finished) job back.
	s2, err := New(Config{SpoolDir: spool, Pool: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Shutdown(context.Background())
	b, err := s2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if b.ID != a.ID || b.State != StateDone {
		t.Fatalf("post-restart resubmit = %s (%s), want %s (done)", b.ID, b.State, a.ID)
	}
}

// advancePolicy waits until the server's policy loop is parked on the manual
// clock, then advances it.
func advancePolicy(t *testing.T, clock *fault.Manual, d time.Duration) {
	t.Helper()
	waitFor(t, 10*time.Second, "policy loop to arm its timer", func() bool { return clock.Pending() > 0 })
	clock.Advance(d)
}

func TestRetryBackoffThenSuccess(t *testing.T) {
	clock := fault.NewManual(time.Date(2026, 8, 8, 0, 0, 0, 0, time.UTC))
	// The first two attempts fail before touching the engine; the third runs.
	hook := func(id string, attempt int) error {
		if attempt < 2 {
			return fmt.Errorf("transient failure %d", attempt)
		}
		return nil
	}
	s := newPolicyServer(t, 1, clock, hook)
	sc := testScenario(8, 4, 1e-3, 11)
	st, err := s.Submit(JobSpec{Scenario: sc, MaxRetries: 3, RetryBackoffMS: 100})
	if err != nil {
		t.Fatal(err)
	}
	// Attempt 0 fails; the job re-queues behind backoff.
	waitFor(t, 10*time.Second, "first retry scheduled", func() bool {
		js, _ := s.Status(st.ID)
		return js.Retries == 1 && js.State == StateQueued
	})
	js, _ := s.Status(st.ID)
	if js.NotBefore == nil {
		t.Fatal("retried job has no backoff window")
	}
	if wait := js.NotBefore.Sub(clock.Now()); wait < 100*time.Millisecond || wait > 200*time.Millisecond {
		t.Fatalf("first backoff = %v, want base(100ms) + jitter(<100ms)", wait)
	}
	// Nothing runs while the backoff holds, even with a free slot.
	if s := state(t, s, st.ID); s != StateQueued {
		t.Fatalf("state during backoff = %s", s)
	}

	advancePolicy(t, clock, time.Second)
	waitFor(t, 10*time.Second, "second retry scheduled", func() bool {
		js, _ := s.Status(st.ID)
		return js.Retries == 2 && js.State == StateQueued
	})
	js, _ = s.Status(st.ID)
	if wait := js.NotBefore.Sub(clock.Now()); wait < 200*time.Millisecond || wait > 300*time.Millisecond {
		t.Fatalf("second backoff = %v, want doubled base(200ms) + jitter", wait)
	}

	advancePolicy(t, clock, time.Second)
	waitFor(t, 30*time.Second, "job done after retries", func() bool { return state(t, s, st.ID) == StateDone })
	snap := s.reg.Snapshot()
	if snap["service.jobs_retried"] != 2 {
		t.Errorf("jobs_retried = %d, want 2", snap["service.jobs_retried"])
	}
	if snap["service.jobs_failed"] != 0 {
		t.Errorf("jobs_failed = %d, want 0 (the job eventually succeeded)", snap["service.jobs_failed"])
	}
}

func TestRetryExhaustedFails(t *testing.T) {
	clock := fault.NewManual(time.Date(2026, 8, 8, 0, 0, 0, 0, time.UTC))
	boom := errors.New("persistent failure")
	s := newPolicyServer(t, 1, clock, func(string, int) error { return boom })
	st, err := s.Submit(JobSpec{Scenario: testScenario(8, 4, 1e-3, 13), MaxRetries: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		waitFor(t, 10*time.Second, "retry scheduled", func() bool {
			js, _ := s.Status(st.ID)
			return js.Retries == i && js.State == StateQueued
		})
		advancePolicy(t, clock, time.Minute)
	}
	waitFor(t, 10*time.Second, "job failed for good", func() bool { return state(t, s, st.ID) == StateFailed })
	js, _ := s.Status(st.ID)
	if js.Error != boom.Error() {
		t.Errorf("terminal error = %q, want %q", js.Error, boom.Error())
	}
	snap := s.reg.Snapshot()
	if snap["service.jobs_retried"] != 2 || snap["service.jobs_failed"] != 1 {
		t.Errorf("retried = %d, failed = %d, want 2 and 1", snap["service.jobs_retried"], snap["service.jobs_failed"])
	}
}

func TestDeadlineExceededQueued(t *testing.T) {
	clock := fault.NewManual(time.Date(2026, 8, 8, 0, 0, 0, 0, time.UTC))
	s := newPolicyServer(t, 1, clock, nil)
	// Occupy the only slot with a paced job so the deadlined one never runs.
	long, err := s.Submit(JobSpec{Scenario: testScenario(8, 400, 1e-9, 15), PaceMS: 20})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "long job running", func() bool { return state(t, s, long.ID) == StateRunning })

	st, err := s.Submit(JobSpec{Scenario: testScenario(8, 4, 1e-3, 17), DeadlineMS: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if st.Deadline == nil {
		t.Fatal("submission did not stamp a deadline")
	}
	advancePolicy(t, clock, 2*time.Second)
	waitFor(t, 10*time.Second, "queued job deadline-failed", func() bool { return state(t, s, st.ID) == StateFailed })
	js, _ := s.Status(st.ID)
	if js.Error != errDeadlineExceeded {
		t.Errorf("error = %q, want %q", js.Error, errDeadlineExceeded)
	}
	if got := s.reg.Snapshot()["service.jobs_deadline_exceeded"]; got != 1 {
		t.Errorf("jobs_deadline_exceeded = %d, want 1", got)
	}
	if _, err := s.Cancel(long.ID); err != nil {
		t.Fatal(err)
	}
}

func TestDeadlineExceededRunning(t *testing.T) {
	clock := fault.NewManual(time.Date(2026, 8, 8, 0, 0, 0, 0, time.UTC))
	s := newPolicyServer(t, 1, clock, nil)
	// Paced so it is still mid-run when the deadline fires.
	st, err := s.Submit(JobSpec{Scenario: testScenario(8, 400, 1e-9, 19), PaceMS: 20, DeadlineMS: 500})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "job running", func() bool { return state(t, s, st.ID) == StateRunning })
	advancePolicy(t, clock, time.Second)
	waitFor(t, 10*time.Second, "running job deadline-failed", func() bool { return state(t, s, st.ID) == StateFailed })
	js, _ := s.Status(st.ID)
	if js.Error != errDeadlineExceeded {
		t.Errorf("error = %q, want %q", js.Error, errDeadlineExceeded)
	}
	if got := s.reg.Snapshot()["service.jobs_deadline_exceeded"]; got != 1 {
		t.Errorf("jobs_deadline_exceeded = %d, want 1", got)
	}
}

// TestDeadlineBlocksRetry: when the deadline expires before the backoff
// window ends, the job fails for good instead of retrying forever.
func TestDeadlineBlocksRetry(t *testing.T) {
	clock := fault.NewManual(time.Date(2026, 8, 8, 0, 0, 0, 0, time.UTC))
	boom := errors.New("always failing")
	s := newPolicyServer(t, 1, clock, func(string, int) error { return boom })
	st, err := s.Submit(JobSpec{
		Scenario:       testScenario(8, 4, 1e-3, 21),
		MaxRetries:     100,
		RetryBackoffMS: 400,
		DeadlineMS:     1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Drive the clock until the job settles; the deadline must win long
	// before 100 retries.
	waitFor(t, 30*time.Second, "job terminal", func() bool {
		if clock.Pending() > 0 {
			clock.Advance(500 * time.Millisecond)
		}
		return state(t, s, st.ID) == StateFailed
	})
	js, _ := s.Status(st.ID)
	if js.Retries > 4 {
		t.Errorf("retries = %d before deadline, want a small number", js.Retries)
	}
}

// A panic on one job's goroutine fails that job alone: it settles failed
// with the panic value and the stack in its error (and so in the journal),
// service.jobs_panicked counts it, a job running beside it completes, and a
// restarted daemon over the same spool leaves the failed job terminal
// instead of requeueing it.
func TestPanickingJobFailsAlone(t *testing.T) {
	spool := t.TempDir()
	const culprit = "job-000001"
	hook := func(id string, attempt int) error {
		if id == culprit {
			panic("poisoned run")
		}
		return nil
	}
	s1, err := New(Config{SpoolDir: spool, Pool: 2, RunHook: hook})
	if err != nil {
		t.Fatal(err)
	}
	a, err := s1.Submit(JobSpec{Scenario: testScenario(8, 4, 1e-3, 41)})
	if err != nil {
		t.Fatal(err)
	}
	if a.ID != culprit {
		t.Fatalf("first job is %s, want %s", a.ID, culprit)
	}
	sc := testScenario(8, 4, 1e-3, 42)
	b, err := s1.Submit(JobSpec{Scenario: sc})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 30*time.Second, "both jobs terminal", func() bool {
		return state(t, s1, a.ID).Terminal() && state(t, s1, b.ID).Terminal()
	})
	st, err := s1.Status(a.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateFailed || !strings.HasPrefix(st.Error, "panic: poisoned run\n") || !strings.Contains(st.Error, "goroutine ") {
		t.Fatalf("panicking job = %s with error %q, want failed with the panic value and a stack", st.State, st.Error)
	}
	if got := state(t, s1, b.ID); got != StateDone {
		t.Fatalf("job beside the panic = %s, want done", got)
	}
	res, err := s1.Result(b.ID)
	if err != nil {
		t.Fatal(err)
	}
	if want := soloRun(t, sc); !reflect.DeepEqual(res, want) {
		t.Error("the job beside the panic differs from an uninterrupted run")
	}
	snap := s1.reg.Snapshot()
	if snap["service.jobs_panicked"] != 1 || snap["service.jobs_failed"] != 1 {
		t.Errorf("jobs_panicked = %d, jobs_failed = %d, want 1 and 1", snap["service.jobs_panicked"], snap["service.jobs_failed"])
	}
	if err := s1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	s2, err := New(Config{SpoolDir: spool, Pool: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Shutdown(context.Background())
	st2, err := s2.Status(a.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st2.State != StateFailed || st2.Error != st.Error {
		t.Fatalf("after restart the panicked job = %s (%q), want failed with the journaled error", st2.State, st2.Error)
	}
	if !s2.Idle() {
		t.Error("restart requeued work; the panicked job must stay terminal")
	}
}
