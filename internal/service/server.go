package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"laacad/internal/core"
	"laacad/internal/fault"
	"laacad/internal/metrics"
	"laacad/internal/scenario"
	"laacad/internal/snapshot"
)

// Sentinel errors the HTTP layer maps onto status codes.
var (
	// ErrUnknownJob wraps lookups of job IDs the server does not know.
	ErrUnknownJob = errors.New("service: unknown job")
	// ErrDraining rejects submissions during shutdown.
	ErrDraining = errors.New("service: server is draining")
	// ErrNoResult wraps result requests for jobs that have not finished.
	ErrNoResult = errors.New("service: no result yet")
)

// Config parameterizes a Server.
type Config struct {
	// SpoolDir is the durable job spool (required). The server owns the
	// directory: an append-only journal of job transition records (see
	// OpenJournal for the format and crash-recovery semantics).
	SpoolDir string
	// Pool is the number of worker slots — concurrent laacad runs. Zero or
	// negative means runtime.NumCPU(). Runs are CPU-bound, so a pool as wide
	// as GOMAXPROCS leaves no processor idle for the daemon's own goroutines;
	// each unpaced run yields its processor at every round boundary, so
	// those wait at most one round. Rounds longer than the runtime's 10 ms
	// preemption slice still leave them to that preemption.
	Pool int
	// FS is the filesystem seam every durable operation runs through; nil
	// means the real filesystem. Fault-injection tests interpose here.
	FS fault.FS
	// Clock drives retry backoff and deadlines; nil means the wall clock.
	// Policy tests substitute a fault.Manual clock.
	Clock fault.Clock
	// Journal tunes the job journal (sync policy, segment rotation,
	// compaction). Its FS field, if nil, inherits Config.FS.
	Journal JournalOptions
	// RunHook, if set, is consulted at the start of every run attempt; a
	// non-nil error fails the attempt without touching the engine. It is a
	// deterministic seam for retry-policy tests (fail the first k attempts
	// of a job, then let it through).
	RunHook func(id string, attempt int) error
}

// job is the runtime wrapper around the durable record: scheduling state
// that must not (cancel funcs) or need not (event buffers, rebuildable from
// the spooled trace) survive a restart. All fields are guarded by Server.mu.
type job struct {
	Job

	cancel          context.CancelFunc
	preempting      bool
	cancelRequested bool
	deadlined       bool

	events []Event
	// notify is closed and replaced every time an event is appended;
	// subscribers grab the current channel together with their cursor.
	notify chan struct{}
}

// Server owns the job queue, the spool, and the worker pool. Create with
// New; all methods are safe for concurrent use.
type Server struct {
	cfg     Config
	pool    int
	reg     *metrics.Registry
	journal *Journal
	clock   fault.Clock

	mu       sync.Mutex
	jobs     map[string]*job
	clients  map[string]string // ClientID -> job ID (idempotent submission)
	slots    []string          // job ID per worker slot; "" = free
	seq      uint64
	draining bool
	warns    []error

	wg sync.WaitGroup

	// wake nudges the policy loop after anything that changes the next
	// backoff/deadline instant; stop ends it.
	wake     chan struct{}
	stop     chan struct{}
	stopOnce sync.Once

	accepted    *metrics.Counter
	completed   *metrics.Counter
	failed      *metrics.Counter
	cancelled   *metrics.Counter
	preempted   *metrics.Counter
	resumed     *metrics.Counter
	retried     *metrics.Counter
	deadlined   *metrics.Counter
	panicked    *metrics.Counter
	quarantined *metrics.Counter
}

// New builds a Server over the spool directory, recovering any jobs a
// previous daemon left behind: terminal jobs keep their results, queued
// jobs re-enter the queue, and jobs that were running (clean shutdown or
// crash) resume from their checkpoint — or restart from scratch when no
// checkpoint was captured, which is safe because a scenario is a replayable
// value. Recovered runnable jobs dispatch immediately.
func New(cfg Config) (*Server, error) {
	if cfg.SpoolDir == "" {
		return nil, fmt.Errorf("service: Config.SpoolDir is required")
	}
	pool := cfg.Pool
	if pool <= 0 {
		pool = runtime.NumCPU()
	}
	reg := &metrics.Registry{}
	clock := cfg.Clock
	if clock == nil {
		clock = fault.Wall{}
	}
	jopts := cfg.Journal
	if jopts.FS == nil {
		jopts.FS = cfg.FS
	}
	jopts = jopts.withDefaults()
	jl, recovery, err := OpenJournal(cfg.SpoolDir, jopts)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:     cfg,
		pool:    pool,
		reg:     reg,
		journal: jl,
		clock:   clock,
		jobs:    make(map[string]*job),
		clients: make(map[string]string),
		slots:   make([]string, pool),
		wake:    make(chan struct{}, 1),
		stop:    make(chan struct{}),

		accepted:    reg.Counter("service.jobs_accepted"),
		completed:   reg.Counter("service.jobs_completed"),
		failed:      reg.Counter("service.jobs_failed"),
		cancelled:   reg.Counter("service.jobs_cancelled"),
		preempted:   reg.Counter("service.jobs_preempted"),
		resumed:     reg.Counter("service.jobs_resumed"),
		retried:     reg.Counter("service.jobs_retried"),
		deadlined:   reg.Counter("service.jobs_deadline_exceeded"),
		panicked:    reg.Counter("service.jobs_panicked"),
		quarantined: reg.Counter("service.records_quarantined"),
	}
	reg.Gauge("service.queue_depth", func() int64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		var n int64
		for _, j := range s.jobs {
			if j.State.runnable() {
				n++
			}
		}
		return n
	})
	reg.Gauge("service.pool_occupancy", func() int64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		var n int64
		for _, id := range s.slots {
			if id != "" {
				n++
			}
		}
		return n
	})
	reg.Counter("service.pool_size").Set(int64(pool))
	reg.Gauge("service.journal_segments", func() int64 { return int64(s.journal.Stats().Segments) })
	reg.Gauge("service.journal_records", func() int64 { return int64(s.journal.Stats().Records) })
	reg.Gauge("service.journal_live", func() int64 { return int64(s.journal.Stats().Live) })
	reg.Gauge("service.journal_compactions", func() int64 { return s.journal.Stats().Compactions })
	reg.Gauge("service.quarantine_files", func() int64 {
		names, err := jopts.FS.ReadDir(quarantineDir(cfg.SpoolDir))
		if err != nil {
			return 0
		}
		return int64(len(names))
	})

	s.quarantined.Add(int64(recovery.Quarantined))
	s.mu.Lock()
	s.warns = append(s.warns, recovery.Warnings...)
	for _, rec := range recovery.Jobs {
		j := &job{Job: *rec, notify: make(chan struct{})}
		j.Slot = -1
		switch {
		case j.State.Terminal():
			// Keep as-is.
		case j.Checkpoint != nil:
			// Cleanly preempted, or interrupted after a checkpoint was
			// journaled: resume from it.
			j.State = StatePreempted
			s.accepted.Add(1)
		default:
			// Queued, or interrupted before any checkpoint: replay from the
			// start (the scenario is deterministic, so nothing is lost).
			j.State = StateQueued
			s.accepted.Add(1)
		}
		seedEvents(j)
		s.jobs[j.ID] = j
		if cid := j.Spec.ClientID; cid != "" {
			s.clients[cid] = j.ID
		}
		if j.Seq > s.seq {
			s.seq = j.Seq
		}
		s.spoolLocked(j)
	}
	s.dispatchLocked()
	s.mu.Unlock()
	go s.policyLoop()
	return s, nil
}

// seedEvents rebuilds a recovered job's event stream from its durable trace
// (checkpoint for interrupted jobs, result for finished ones), so SSE
// clients reconnecting after a daemon restart still replay history.
func seedEvents(j *job) {
	j.events = j.events[:0]
	push := func(e Event) {
		e.ID = len(j.events) + 1
		e.JobID = j.ID
		j.events = append(j.events, e)
	}
	push(Event{Type: "state", State: StateQueued})
	var trace []core.RoundStats
	switch {
	case j.Result != nil:
		trace = j.Result.Trace
	case j.Checkpoint != nil:
		trace = core.TraceFromState(j.Checkpoint.Trace)
	}
	for i := range trace {
		push(Event{Type: "round", Round: &trace[i]})
	}
	if j.State.Terminal() {
		push(Event{Type: "state", State: j.State, Error: j.Error})
	} else if j.State == StatePreempted {
		push(Event{Type: "state", State: StatePreempted})
	}
}

// Warnings returns journal-recovery and journal-write problems collected so
// far.
func (s *Server) Warnings() []error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.warns = append(s.warns, s.journal.Warnings()...)
	return append([]error(nil), s.warns...)
}

// Submit validates spec, durably journals it as a new queued job, and
// dispatches. The scheduler may preempt lower-priority running work to make
// room; see JobSpec.Priority. A spec carrying a ClientID the server has
// already accepted returns the existing job — retried POSTs never create
// duplicates.
func (s *Server) Submit(spec JobSpec) (*JobStatus, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if cid := spec.ClientID; cid != "" {
		if id, ok := s.clients[cid]; ok {
			return s.statusLocked(s.jobs[id]), nil
		}
	}
	if s.draining {
		return nil, ErrDraining
	}
	s.seq++
	now := s.clock.Now()
	j := &job{
		Job: Job{
			ID:          fmt.Sprintf("job-%06d", s.seq),
			Seq:         s.seq,
			Spec:        spec,
			State:       StateQueued,
			SubmittedAt: now,
			Slot:        -1,
		},
		notify: make(chan struct{}),
	}
	if spec.DeadlineMS > 0 {
		dl := now.Add(time.Duration(spec.DeadlineMS) * time.Millisecond)
		j.Deadline = &dl
	}
	payload, err := json.Marshal(&j.Job)
	if err != nil {
		s.seq--
		return nil, fmt.Errorf("service: encoding job %s: %w", j.ID, err)
	}
	if err := s.journal.Append(j.ID, payload); err != nil {
		s.seq--
		return nil, err
	}
	s.jobs[j.ID] = j
	if cid := spec.ClientID; cid != "" {
		s.clients[cid] = j.ID
	}
	s.accepted.Add(1)
	s.appendEventLocked(j, Event{Type: "state", State: StateQueued})
	s.dispatchLocked()
	if j.Deadline != nil {
		s.wakePolicy()
	}
	return s.statusLocked(j), nil
}

// Cancel moves a job to StateCancelled: queued and preempted jobs
// immediately, running jobs by cancelling their context (the transition
// lands when the worker yields). Cancelling a terminal job is a no-op.
func (s *Server) Cancel(id string) (*JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	switch {
	case j.State.Terminal():
		// Idempotent.
	case j.State == StateRunning:
		j.cancelRequested = true
		if j.cancel != nil {
			j.cancel()
		}
	default:
		s.terminalLocked(j, StateCancelled, "")
		s.dispatchLocked()
	}
	return s.statusLocked(j), nil
}

// Status returns the client-facing view of one job.
func (s *Server) Status(id string) (*JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	return s.statusLocked(j), nil
}

// List returns every job in submission order.
func (s *Server) List() []*JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*JobStatus, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, s.statusLocked(j))
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// Result returns a finished job's deployment result.
func (s *Server) Result(id string) (*core.Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	if j.Result == nil {
		return nil, fmt.Errorf("%w: job %s is %s", ErrNoResult, id, j.State)
	}
	return j.Result, nil
}

// Events returns the job's events with ID > after (IDs are 1-based), a
// channel closed when more events arrive, and whether the job is terminal
// (terminal means the returned slice completes the stream).
func (s *Server) Events(id string, after int) ([]Event, <-chan struct{}, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, nil, false, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	if after < 0 {
		after = 0
	}
	if after > len(j.events) {
		after = len(j.events)
	}
	return j.events[after:], j.notify, j.State.Terminal(), nil
}

// Shutdown drains the server for a restart: no new submissions, every
// running job is cancelled at its next round boundary, checkpointed, and
// journaled as preempted — the generalization of cmd/laacad's checkpoint-on-
// interrupt to a whole pool. Queued jobs stay journaled as queued. A fresh
// Server over the same spool resumes everything. Returns ctx.Err() if the
// pool does not quiesce in time.
func (s *Server) Shutdown(ctx context.Context) error {
	s.stopOnce.Do(func() { close(s.stop) })
	s.mu.Lock()
	s.draining = true
	for _, id := range s.slots {
		if id == "" {
			continue
		}
		j := s.jobs[id]
		if j.cancel != nil && !j.cancelRequested {
			j.preempting = true
			j.cancel()
		}
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		if err := s.journal.Close(); err != nil {
			s.mu.Lock()
			s.warns = append(s.warns, err)
			s.mu.Unlock()
		}
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Retry/deadline policy. The policy loop sleeps (on the injectable clock)
// until the earliest pending backoff release or deadline, applies whatever
// became due, and redispatches. Anything that changes the schedule nudges
// it through s.wake.

func (s *Server) wakePolicy() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// nextPolicyEventLocked returns the earliest instant the policy loop must
// act on (zero time when nothing is pending).
func (s *Server) nextPolicyEventLocked() time.Time {
	var next time.Time
	sooner := func(t time.Time) {
		if next.IsZero() || t.Before(next) {
			next = t
		}
	}
	for _, j := range s.jobs {
		if j.State.Terminal() {
			continue
		}
		if j.NotBefore != nil {
			sooner(*j.NotBefore)
		}
		if j.Deadline != nil && !j.deadlined {
			sooner(*j.Deadline)
		}
	}
	return next
}

// applyPolicyLocked releases expired backoffs and fails expired deadlines.
func (s *Server) applyPolicyLocked() {
	now := s.clock.Now()
	for _, j := range s.jobs {
		if j.State.Terminal() {
			continue
		}
		if j.Deadline != nil && !j.deadlined && !now.Before(*j.Deadline) {
			if j.State == StateRunning {
				// Cancel at the next round boundary; settle maps the
				// cancellation to deadline_exceeded via j.deadlined.
				j.deadlined = true
				if j.cancel != nil {
					j.cancel()
				}
			} else {
				s.deadlined.Add(1)
				s.terminalLocked(j, StateFailed, errDeadlineExceeded)
			}
			continue
		}
		if j.NotBefore != nil && !now.Before(*j.NotBefore) {
			j.NotBefore = nil
			s.spoolLocked(j)
		}
	}
}

func (s *Server) policyLoop() {
	for {
		s.mu.Lock()
		next := s.nextPolicyEventLocked()
		now := s.clock.Now()
		s.mu.Unlock()
		var timer <-chan time.Time
		if !next.IsZero() {
			timer = s.clock.After(next.Sub(now))
		}
		select {
		case <-s.stop:
			return
		case <-s.wake:
		case <-timer:
		}
		s.mu.Lock()
		s.applyPolicyLocked()
		s.dispatchLocked()
		s.mu.Unlock()
	}
}

// Scheduling. All *Locked methods require s.mu.

// appendEventLocked stamps and stores an event and wakes subscribers.
func (s *Server) appendEventLocked(j *job, e Event) {
	e.ID = len(j.events) + 1
	e.JobID = j.ID
	j.events = append(j.events, e)
	close(j.notify)
	j.notify = make(chan struct{})
}

// spoolLocked appends the job's current state to the journal, downgrading
// IO errors to warnings: the in-memory queue stays authoritative.
func (s *Server) spoolLocked(j *job) {
	payload, err := json.Marshal(&j.Job)
	if err != nil {
		s.warns = append(s.warns, fmt.Errorf("service: encoding job %s: %w", j.ID, err))
		return
	}
	if err := s.journal.Append(j.ID, payload); err != nil {
		s.warns = append(s.warns, err)
	}
}

// terminalLocked finishes a job: state, counters, event, journal.
func (s *Server) terminalLocked(j *job, state JobState, errMsg string) {
	now := s.clock.Now()
	j.State = state
	j.FinishedAt = &now
	j.Error = errMsg
	switch state {
	case StateDone:
		s.completed.Add(1)
		j.Checkpoint = nil
	case StateFailed:
		s.failed.Add(1)
	case StateCancelled:
		s.cancelled.Add(1)
		j.Checkpoint = nil
	}
	s.appendEventLocked(j, Event{Type: "state", State: state, Error: errMsg})
	s.spoolLocked(j)
}

// bestQueuedLocked picks the runnable job to start next: highest priority,
// then submission order. Jobs inside a retry-backoff window (NotBefore in
// the future) are invisible until the policy loop releases them.
func (s *Server) bestQueuedLocked() *job {
	now := s.clock.Now()
	var best *job
	for _, j := range s.jobs {
		if !j.State.runnable() {
			continue
		}
		if j.NotBefore != nil && now.Before(*j.NotBefore) {
			continue
		}
		if best == nil ||
			j.Spec.Priority > best.Spec.Priority ||
			(j.Spec.Priority == best.Spec.Priority && j.Seq < best.Seq) {
			best = j
		}
	}
	return best
}

// freeSlotLocked returns the lowest free worker slot, or -1.
func (s *Server) freeSlotLocked() int {
	for i, id := range s.slots {
		if id == "" {
			return i
		}
	}
	return -1
}

// victimLocked picks the running job to preempt for an arrival with the
// given priority: the lowest-priority running job, provided it is strictly
// below the arrival (equal priorities never preempt — the queue drains in
// order instead). Among equals the youngest yields, losing the least
// progress.
func (s *Server) victimLocked(priority int) *job {
	var victim *job
	for _, id := range s.slots {
		if id == "" {
			continue
		}
		j := s.jobs[id]
		if j.preempting || j.cancelRequested {
			continue
		}
		if victim == nil ||
			j.Spec.Priority < victim.Spec.Priority ||
			(j.Spec.Priority == victim.Spec.Priority && j.Seq > victim.Seq) {
			victim = j
		}
	}
	if victim == nil || victim.Spec.Priority >= priority {
		return nil
	}
	return victim
}

// dispatchLocked is the scheduler: fill free slots in priority order, and
// when the pool is full, preempt one strictly-lower-priority victim for the
// best queued job. The victim's worker re-enters dispatch when it yields,
// so cascaded preemptions and the actual start of the waiting job follow
// naturally, one slot handoff at a time.
func (s *Server) dispatchLocked() {
	if s.draining {
		return
	}
	for {
		j := s.bestQueuedLocked()
		if j == nil {
			return
		}
		slot := s.freeSlotLocked()
		if slot < 0 {
			if v := s.victimLocked(j.Spec.Priority); v != nil {
				v.preempting = true
				v.cancel()
			}
			return
		}
		s.startLocked(j, slot)
	}
}

// startLocked moves a runnable job onto a worker slot.
func (s *Server) startLocked(j *job, slot int) {
	ctx, cancel := context.WithCancel(context.Background())
	j.cancel = cancel
	j.State = StateRunning
	j.Slot = slot
	j.Slots = append(j.Slots, slot)
	if j.StartedAt == nil {
		now := s.clock.Now()
		j.StartedAt = &now
	}
	chk := j.Checkpoint
	if chk != nil {
		s.resumed.Add(1)
	}
	s.slots[slot] = j.ID
	s.appendEventLocked(j, Event{Type: "state", State: StateRunning})
	s.spoolLocked(j)
	s.wg.Add(1)
	go s.runJob(ctx, cancel, j, slot, chk)
}

// runJob drives one job on one worker slot: run one attempt, then settle
// its outcome.
func (s *Server) runJob(ctx context.Context, cancel context.CancelFunc, j *job, slot int, chk *snapshot.State) {
	defer s.wg.Done()
	defer cancel()
	res, next, err := s.attempt(ctx, j, chk)
	s.settle(j, slot, res, next, err)
}

// attempt runs one attempt of a job: build (or resume from chk) the runner,
// stream rounds into the event log, and return the outcome settle applies —
// the result, the checkpoint to keep, and the run's error. A context
// cancellation is either a client cancel or a preemption/shutdown; the
// latter captures a checkpoint so the job resumes bit-identically — the
// engine checks its context between rounds, so the checkpoint is always a
// clean round boundary.
//
// A panic on the attempt's goroutine (the run hook, the engine, the round
// observer) is recovered into an error carrying the panic value and the
// goroutine's stack, so the job fails alone — under the same retry policy
// as any failed run — and the failure is journaled with it, instead of the
// panic killing every running job and crash recovery requeueing the culprit.
func (s *Server) attempt(ctx context.Context, j *job, chk *snapshot.State) (res *core.Result, next *snapshot.State, err error) {
	defer func() {
		if v := recover(); v != nil {
			s.panicked.Add(1)
			res, next, err = nil, nil, fmt.Errorf("panic: %v\n%s", v, debug.Stack())
		}
	}()

	if s.cfg.RunHook != nil {
		s.mu.Lock()
		id, attempt := j.ID, j.Retries
		s.mu.Unlock()
		if err = s.cfg.RunHook(id, attempt); err != nil {
			return nil, chk, err
		}
	}

	pace := time.Duration(j.Spec.PaceMS) * time.Millisecond
	opts := []scenario.Option{scenario.WithObserver(func(_ scenario.Runner, st core.RoundStats) error {
		s.onRound(j, st)
		if pace <= 0 {
			// A running job never blocks between rounds, so whatever the
			// round readied (the event's watchers, a handler back from its
			// fsync, a reader the netpoller woke) would otherwise wait for
			// the runtime's 10 ms preemption. A paced job parks below.
			runtime.Gosched()
			return nil
		}
		t := time.NewTimer(pace)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
		}
		return nil
	})}
	if j.Spec.Workers != nil {
		opts = append(opts, scenario.WithWorkers(*j.Spec.Workers))
	}
	if j.Spec.MaxRounds != nil {
		opts = append(opts, scenario.WithMaxRounds(*j.Spec.MaxRounds))
	}

	var r scenario.Runner
	if chk != nil {
		r, err = scenario.ResumeRunner(chk, opts...)
	} else {
		r, err = scenario.NewRunner(j.Spec.Scenario, opts...)
	}
	if err != nil {
		if ctx.Err() != nil {
			// Preempted (or cancelled) before the run even started: keep the
			// checkpoint we were about to resume from, if any.
			return nil, chk, context.Canceled
		}
		return nil, nil, err
	}
	res, err = r.Run(ctx)
	if errors.Is(err, context.Canceled) {
		st, serr := r.Snapshot()
		if serr != nil {
			return nil, nil, fmt.Errorf("checkpointing cancelled run: %w", serr)
		}
		return nil, st, err
	}
	return res, nil, err
}

// onRound records one completed round into the job's event stream.
func (s *Server) onRound(j *job, st core.RoundStats) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j.Rounds = st.Round
	stat := st
	s.appendEventLocked(j, Event{Type: "round", Round: &stat})
}

// settle releases the worker slot and applies the run's outcome: done,
// failed (possibly re-queued by retry policy), cancelled, deadline-expired,
// or preempted-with-checkpoint.
func (s *Server) settle(j *job, slot int, res *core.Result, chk *snapshot.State, runErr error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.slots[slot] = ""
	j.Slot = -1
	j.preempting = false
	j.cancel = nil
	switch {
	case errors.Is(runErr, context.Canceled) && j.cancelRequested:
		s.terminalLocked(j, StateCancelled, "")
	case errors.Is(runErr, context.Canceled) && j.deadlined:
		s.deadlined.Add(1)
		s.terminalLocked(j, StateFailed, errDeadlineExceeded)
	case errors.Is(runErr, context.Canceled):
		j.Checkpoint = chk
		j.State = StatePreempted
		if chk == nil {
			// Yielded before any checkpoint existed: replay from the start.
			j.State = StateQueued
		}
		j.Preemptions++
		s.preempted.Add(1)
		s.appendEventLocked(j, Event{Type: "state", State: j.State})
		s.spoolLocked(j)
	case runErr != nil:
		if s.retryLocked(j, runErr) {
			break
		}
		s.terminalLocked(j, StateFailed, runErr.Error())
	default:
		j.Result = res
		s.terminalLocked(j, StateDone, "")
	}
	s.dispatchLocked()
}

// errDeadlineExceeded is the distinguished failure a job carries when its
// Spec.DeadlineMS budget expires.
const errDeadlineExceeded = "deadline_exceeded"

// retryLocked applies retry policy to a failed run: if attempts remain (and
// the deadline, if any, has not passed) the job re-queues behind an
// exponential backoff with deterministic jitter. Reports whether the job
// was re-queued.
func (s *Server) retryLocked(j *job, runErr error) bool {
	if j.Retries >= j.Spec.MaxRetries || j.cancelRequested {
		return false
	}
	now := s.clock.Now()
	if j.Deadline != nil && !now.Before(*j.Deadline) {
		return false
	}
	j.Retries++
	base := time.Duration(j.Spec.RetryBackoffMS) * time.Millisecond
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	shift := j.Retries - 1
	if shift > 20 {
		shift = 20
	}
	backoff := base << uint(shift)
	nb := now.Add(backoff + retryJitter(j.ID, j.Retries, base))
	j.NotBefore = &nb
	j.State = StateQueued
	j.Checkpoint = nil // a failed run restarts from scratch
	j.Error = runErr.Error()
	s.retried.Add(1)
	s.appendEventLocked(j, Event{Type: "state", State: StateQueued, Error: runErr.Error()})
	s.spoolLocked(j)
	s.wakePolicy()
	return true
}

// retryJitter derives a deterministic jitter in [0, base) from the job ID
// and attempt number, decorrelating retry herds without a random source.
func retryJitter(id string, attempt int, base time.Duration) time.Duration {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d", id, attempt)
	if base <= 0 {
		return 0
	}
	return time.Duration(h.Sum64() % uint64(base))
}

// statusLocked builds the wire view of a job.
func (s *Server) statusLocked(j *job) *JobStatus {
	sc := j.Spec.Scenario
	return &JobStatus{
		ID:          j.ID,
		State:       j.State,
		Priority:    j.Spec.Priority,
		Scenario:    sc.Name,
		Region:      sc.Region,
		Placement:   sc.Placement,
		N:           sc.N,
		Async:       sc.Async,
		SubmittedAt: j.SubmittedAt,
		StartedAt:   j.StartedAt,
		FinishedAt:  j.FinishedAt,
		Slot:        j.Slot,
		Slots:       append([]int(nil), j.Slots...),
		Preemptions: j.Preemptions,
		Rounds:      j.Rounds,
		Error:       j.Error,
		ClientID:    j.Spec.ClientID,
		Retries:     j.Retries,
		NotBefore:   j.NotBefore,
		Deadline:    j.Deadline,
		HasResult:   j.Result != nil,
		Events:      len(j.events),
	}
}
