package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"laacad/internal/metrics"
	"laacad/internal/scenario"
	"laacad/internal/snapshot"
)

// startHTTP serves the Server's API on a real loopback listener.
func startHTTP(t *testing.T, s *Server) string {
	t.Helper()
	addr, shutdown, err := metrics.ListenAndServe("127.0.0.1:0", s.Handler())
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(shutdown)
	return "http://" + addr
}

// waitState polls a job over HTTP until cond holds on its status.
func waitState(t *testing.T, c *Client, id, what string, cond func(*JobStatus) bool) *JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st, err := c.Job(context.Background(), id)
		if err != nil {
			t.Fatalf("status %s: %v", id, err)
		}
		if cond(st) {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
	return nil
}

// TestHTTPPreemptResumeDifferentSlot is the end-to-end acceptance: over real
// HTTP, a job is preempted mid-run by a higher-priority arrival and later
// resumes on a DIFFERENT worker slot, finishing with Positions/Trace/
// Messages exactly equal to the same scenario run uninterrupted — while an
// SSE watcher follows the whole lifecycle without losing an event.
func TestHTTPPreemptResumeDifferentSlot(t *testing.T) {
	s := newTestServer(t, 2)
	base := startHTTP(t, s)
	c := &Client{BaseURL: base}
	ctx := context.Background()

	scA := testScenario(12, 40, 1e-12, 51) // the preempted job
	scB := testScenario(12, 200, 1e-12, 52)
	scH := testScenario(12, 200, 1e-12, 53)
	solo := soloRun(t, scA)

	// A (prio 0) takes slot 0; B (prio 5) takes slot 1. Both paced so they
	// hold their slots.
	a, err := c.Submit(ctx, JobSpec{Scenario: scA, PaceMS: 10})
	if err != nil {
		t.Fatal(err)
	}

	// Follow A's event stream concurrently from the very beginning.
	var evMu sync.Mutex
	var events []Event
	watchDone := make(chan error, 1)
	go func() {
		watchDone <- c.Watch(ctx, a.ID, 0, func(e Event) error {
			evMu.Lock()
			events = append(events, e)
			evMu.Unlock()
			return nil
		})
	}()

	waitState(t, c, a.ID, "A on slot 0", func(st *JobStatus) bool {
		return st.State == StateRunning && st.Slot == 0
	})
	b, err := c.Submit(ctx, JobSpec{Scenario: scB, PaceMS: 10, Priority: 5})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, b.ID, "B on slot 1", func(st *JobStatus) bool {
		return st.State == StateRunning && st.Slot == 1
	})
	waitState(t, c, a.ID, "A past round 2", func(st *JobStatus) bool { return st.Rounds >= 2 })

	// H (prio 9) preempts the lowest-priority running job: A, freeing slot 0.
	h, err := c.Submit(ctx, JobSpec{Scenario: scH, PaceMS: 10, Priority: 9})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, a.ID, "A preempted", func(st *JobStatus) bool { return st.Preemptions == 1 })
	waitState(t, c, h.ID, "H on slot 0", func(st *JobStatus) bool {
		return st.State == StateRunning && st.Slot == 0
	})
	// A (prio 0) must NOT preempt B (prio 5): it waits until we cancel B,
	// then resumes on B's slot 1 while H still occupies slot 0.
	if st, _ := c.Job(ctx, a.ID); st.State == StateRunning {
		t.Fatalf("A resumed while both slots were held by higher priorities")
	}
	if _, err := c.Cancel(ctx, b.ID); err != nil {
		t.Fatal(err)
	}
	resumedA := waitState(t, c, a.ID, "A resumed", func(st *JobStatus) bool { return st.State == StateRunning })
	if resumedA.Slot != 1 {
		t.Errorf("A resumed on slot %d, want 1 (a different slot)", resumedA.Slot)
	}
	doneA := waitState(t, c, a.ID, "A done", func(st *JobStatus) bool { return st.State == StateDone })
	if want := []int{0, 1}; !reflect.DeepEqual(doneA.Slots, want) {
		t.Errorf("A slot history = %v, want %v", doneA.Slots, want)
	}

	// Bit-identity over the wire: the HTTP result of the preempted+resumed
	// run equals the in-process uninterrupted run exactly (encoding/json
	// round-trips float64 losslessly).
	res, err := c.Result(ctx, a.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Positions, solo.Positions) {
		t.Error("Positions differ from uninterrupted run")
	}
	if !reflect.DeepEqual(res.Trace, solo.Trace) {
		t.Error("Trace differs from uninterrupted run")
	}
	if res.Messages != solo.Messages {
		t.Errorf("Messages = %d, want %d (uninterrupted run)", res.Messages, solo.Messages)
	}
	if !reflect.DeepEqual(res, solo) {
		t.Error("full Result differs from uninterrupted run")
	}

	// The watcher saw the complete lifecycle: every round exactly once, in
	// order, bracketed by queued → running → preempted → running → done.
	if err := <-watchDone; err != nil {
		t.Fatalf("watch: %v", err)
	}
	evMu.Lock()
	defer evMu.Unlock()
	var rounds []int
	var states []JobState
	for _, e := range events {
		switch e.Type {
		case "round":
			rounds = append(rounds, e.Round.Round)
		case "state":
			states = append(states, e.State)
		}
	}
	if len(rounds) != 40 {
		t.Fatalf("watcher saw %d round events, want 40", len(rounds))
	}
	for i, r := range rounds {
		if r != i+1 {
			t.Fatalf("round event %d has Round=%d, want %d (no gaps, no duplicates)", i, r, i+1)
		}
	}
	wantStates := []JobState{StateQueued, StateRunning, StatePreempted, StateRunning, StateDone}
	if !reflect.DeepEqual(states, wantStates) {
		t.Errorf("state sequence = %v, want %v", states, wantStates)
	}

	if _, err := c.Cancel(ctx, h.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, c, h.ID, "H cancelled", func(st *JobStatus) bool { return st.State == StateCancelled })

	snap, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if snap["service.jobs_preempted"] != 1 || snap["service.jobs_resumed"] != 1 {
		t.Errorf("preempted=%d resumed=%d, want 1/1", snap["service.jobs_preempted"], snap["service.jobs_resumed"])
	}
	if snap["service.jobs_accepted"] != 3 {
		t.Errorf("accepted = %d, want 3", snap["service.jobs_accepted"])
	}
}

// TestSSEResumeWithLastEventID drops an SSE connection mid-stream and
// reconnects with the cursor: the continuation starts at exactly the next
// event ID.
func TestSSEResumeWithLastEventID(t *testing.T) {
	s := newTestServer(t, 1)
	base := startHTTP(t, s)
	c := &Client{BaseURL: base}
	ctx := context.Background()

	st, err := c.Submit(ctx, JobSpec{Scenario: testScenario(12, 30, 1e-12, 61), PaceMS: 5})
	if err != nil {
		t.Fatal(err)
	}

	// First connection: read a handful of events, then drop it.
	after := 0
	firstCtx, cancel := context.WithCancel(ctx)
	seen := 0
	err = c.Watch(firstCtx, st.ID, after, func(e Event) error {
		after = e.ID
		if seen++; seen >= 5 {
			cancel()
		}
		return nil
	})
	if err != nil && firstCtx.Err() == nil {
		t.Fatalf("first watch: %v", err)
	}
	cancel()

	// Reconnect with the cursor: the stream must continue at after+1.
	first := 0
	if err := c.Watch(ctx, st.ID, after, func(e Event) error {
		if first == 0 {
			first = e.ID
		}
		return nil
	}); err != nil {
		t.Fatalf("resumed watch: %v", err)
	}
	if first != after+1 {
		t.Errorf("resumed stream started at event %d, want %d", first, after+1)
	}
}

func TestHTTPErrorMapping(t *testing.T) {
	s := newTestServer(t, 1)
	base := startHTTP(t, s)

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Errorf("/healthz = %d, want 200", code)
	}
	if code, _ := get("/jobs/job-999999"); code != http.StatusNotFound {
		t.Errorf("unknown job status = %d, want 404", code)
	}
	if code, _ := get("/jobs/job-999999/result"); code != http.StatusNotFound {
		t.Errorf("unknown job result = %d, want 404", code)
	}
	if code, _ := get("/jobs/job-999999/events"); code != http.StatusNotFound {
		t.Errorf("unknown job events = %d, want 404", code)
	}

	// Invalid spec → 400 with the validation message.
	bad := `{"scenario": {"name": "x", "region": "atlantis", "placement": "uniform", "n": 10, "config": {"k": 1, "alpha": 0.5, "epsilon": 0.001, "max_rounds": 10}}}`
	resp, err := http.Post(base+"/jobs", "application/json", strings.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid spec = %d, want 400", resp.StatusCode)
	}
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &e) != nil || !strings.Contains(e.Error, "atlantis") {
		t.Errorf("validation error should name the bad region, got: %s", body)
	}

	// Result of an unfinished job → 409.
	c := &Client{BaseURL: base}
	st, err := c.Submit(context.Background(), JobSpec{Scenario: testScenario(12, 200, 1e-12, 71), PaceMS: 10})
	if err != nil {
		t.Fatal(err)
	}
	if code, _ := get(fmt.Sprintf("/jobs/%s/result", st.ID)); code != http.StatusConflict {
		t.Errorf("result of running job = %d, want 409", code)
	}
	if _, err := c.Cancel(context.Background(), st.ID); err != nil {
		t.Fatal(err)
	}

	// Wrong method → 405.
	req, _ := http.NewRequest(http.MethodPut, base+"/jobs", nil)
	r2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("PUT /jobs = %d, want 405", r2.StatusCode)
	}
}

// The kernel and cache switches, the ring-query mode and the kept-regions
// switch are gone from the configuration schema, so every strict decoder
// must reject a document still carrying one — naming the field, never
// silently dropping it and never panicking: scenario JSON, a resumable
// checkpoint, and a POST /jobs body (HTTP 400).
func TestRemovedConfigFieldsRejected(t *testing.T) {
	s := newTestServer(t, 1)
	base := startHTTP(t, s)
	for _, c := range []struct{ field, value string }{
		{"disable_cache", "true"},
		{"disable_batch", "true"},
		{"ring_mode", "1"},
		{"keep_regions", "true"},
	} {
		field := c.field
		config := fmt.Sprintf(`{"k": 2, "alpha": 0.5, "epsilon": 0.001, "max_rounds": 10, "seed": 1, %q: %s}`, field, c.value)
		sc := fmt.Sprintf(`{"name": "x", "region": "square", "placement": "uniform", "n": 10, "config": %s}`, config)

		if _, err := scenario.ParseJSON([]byte(sc)); err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("scenario JSON with %s: err = %v, want one naming the field", field, err)
		}

		ckpt := fmt.Sprintf(`{"version": 1, "kind": "engine", "round": 0, "converged": false, "x": [0.5], "y": [0.5], "config": %s}`, config)
		if _, err := snapshot.ReadState(strings.NewReader(ckpt)); err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("checkpoint with %s: err = %v, want one naming the field", field, err)
		}

		resp, err := http.Post(base+"/jobs", "application/json", strings.NewReader(`{"scenario": `+sc+`}`))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), field) {
			t.Errorf("POST /jobs with %s = %d %s, want 400 naming the field", field, resp.StatusCode, body)
		}
	}
	if jobs := s.List(); len(jobs) != 0 {
		t.Errorf("rejected submissions created %d job(s)", len(jobs))
	}
}

// TestOversizedJobSpecRejected: POST /jobs reads at most MaxJobSpecBytes of
// body. A larger one is answered 413 with an error naming the limit, and
// creates no job.
func TestOversizedJobSpecRejected(t *testing.T) {
	s := newTestServer(t, 1)
	base := startHTTP(t, s)
	body := `{"scenario": {"name": "` + strings.Repeat("a", MaxJobSpecBytes) + `"}}`
	resp, err := http.Post(base+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized spec = %d, want 413", resp.StatusCode)
	}
	if !strings.Contains(string(got), fmt.Sprint(MaxJobSpecBytes)) {
		t.Errorf("413 error should name the %d-byte limit, got: %s", MaxJobSpecBytes, got)
	}
	if jobs := s.List(); len(jobs) != 0 {
		t.Errorf("oversized submission created %d job(s)", len(jobs))
	}
}
