package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"laacad/internal/core"
	"laacad/internal/fault"
	"laacad/internal/scenario"
	"laacad/internal/service"
)

// Job kinds cycled through the daemon: small regimes on the square and the
// non-convex shapes, plus Algorithm 2. Each job is capped at ten rounds so
// the service's own layers stay a visible share of latency.
var jobKinds = []string{"uniform", "corner", "cluster", "lshape", "cross", "localized"}

const (
	jobSeedsPerKind = 4
	jobMaxRounds    = 10
	// daemonClients closed-loop clients, each with one job in flight — one
	// per CPU of the 2-CPU reference machine, and the daemon's pool size.
	daemonClients   = 2
	daemonPool      = 2
	daemonMinJobs   = 200 // ≥ 10 samples beyond p95
	daemonSetupReps = 25
	jobTimeout      = 60 * time.Second
)

// jobSpecs derives the distinct job specs from the workload seed, kind by
// kind.
func jobSpecs(seed int64) ([]service.JobSpec, error) {
	var out []service.JobSpec
	rounds := jobMaxRounds
	for _, kind := range jobKinds {
		for s := 0; s < jobSeedsPerKind; s++ {
			sc, err := lookup(kind, subSeed(seed, fmt.Sprintf("job/%s/%d", kind, s))%1_000_000_007)
			if err != nil {
				return nil, err
			}
			out = append(out, service.JobSpec{Scenario: sc, MaxRounds: &rounds})
		}
	}
	return out, nil
}

// daemon is an in-process laacadd behind a real loopback listener.
type daemon struct {
	srv   *service.Server
	hs    *http.Server
	url   string
	spool string
	done  chan error
}

func startDaemon(spool string, fs fault.FS) (*daemon, error) {
	srv, err := service.New(service.Config{SpoolDir: spool, Pool: daemonPool, FS: fs})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(context.Background()) // the listen error is the one to report
		return nil, err
	}
	d := &daemon{srv: srv, hs: &http.Server{Handler: srv.Handler()}, url: "http://" + ln.Addr().String(), spool: spool, done: make(chan error, 1)}
	go func() { d.done <- d.hs.Serve(ln) }()
	return d, nil
}

// stop drains HTTP, shuts the server down, waits for the serve goroutine and
// removes the spool.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	herr := d.hs.Shutdown(ctx)
	serr := d.srv.Shutdown(ctx)
	if err := <-d.done; !errors.Is(err, http.ErrServerClosed) {
		herr = errors.Join(herr, err)
	}
	return errors.Join(herr, serr, os.RemoveAll(d.spool))
}

// jobRun is one job as the client saw it.
type jobRun struct {
	spec       int
	id         string
	res        *core.Result
	err        error
	latency    time.Duration // submit call start → verified result in hand
	firstRound time.Duration // submit call start → first "round" event
	events     int
	submit     time.Duration
	result     time.Duration
	queueWait  time.Duration // from JobStatus timestamps (traced runs)
	run        time.Duration
}

// runDaemon serves seeded capped jobs through an in-process daemon with
// daemonClients closed-loop clients until the window is used up and at least
// daemonMinJobs jobs have finished.
func runDaemon(cfg runConfig, chk *checker) (*outcome, error) {
	tr := cfg.tr
	specs, err := jobSpecs(cfg.seed)
	if err != nil {
		return nil, err
	}
	var jfs *timedFS
	var fs fault.FS
	if tr != nil {
		jfs = &timedFS{tr: tr}
		fs = jfs
	}
	spoolBase, err := filepath.Abs(filepath.Join(outDir, fmt.Sprintf("spool-%d", os.Getpid())))
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(spoolBase)

	var setups []float64
	var d *daemon
	for rep := 0; rep < daemonSetupReps; rep++ {
		runtime.GC() // every set-up starts from the same heap state
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		id := tr.begin("service.setup", 0, "")
		d, err = startDaemon(filepath.Join(spoolBase, fmt.Sprint(rep)), fs)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer func() {
		if d != nil {
			_ = d.stop() // error path only; the success path stops and checks below
		}
	}()
	transport := &http.Transport{MaxConnsPerHost: daemonClients, MaxIdleConnsPerHost: daemonClients}
	defer transport.CloseIdleConnections()
	client := &service.Client{BaseURL: d.url, HTTPClient: &http.Client{Transport: transport}}
	order := rand.New(rand.NewSource(subSeed(cfg.seed, "daemon/order")))

	var runs []jobRun
	var meter passMeter
	var syncs0, bytes0 int64
	if jfs != nil {
		// Count only the window's journal traffic, not the set-ups'.
		syncs0, bytes0 = -jfs.syncs.Load(), -jfs.bytes.Load()
	}
	meter.start()
	start := time.Now()
	passes := 0
	for len(runs) < daemonMinJobs || time.Since(start) < cfg.seconds {
		passID := tr.begin("pass", 0, fmt.Sprintf("pass-%d", passes))
		perm := order.Perm(len(specs))
		pass := make([]jobRun, len(perm))
		var next atomic.Int64
		var wg sync.WaitGroup
		for c := 0; c < daemonClients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1) - 1)
					if i >= len(perm) {
						return
					}
					cid := fmt.Sprintf("perfbench-%d-%d-%d", cfg.seed, passes, i)
					pass[i] = runJob(client, tr, passID, cid, specs[perm[i]])
					pass[i].spec = perm[i]
				}
			}()
		}
		wg.Wait()
		runs = append(runs, pass...)
		meter.passDone()
		if passes == 0 {
			if jfs != nil {
				syncs0 += jfs.syncs.Load()
				bytes0 += jfs.bytes.Load()
			}
		}
		tr.end(passID)
		passes++
	}
	window := time.Since(start)
	transport.CloseIdleConnections()
	err = d.stop()
	d = nil
	if err != nil {
		return nil, fmt.Errorf("stopping daemon: %w", err)
	}

	// Correctness: every job's result must equal an in-process solo run of
	// its spec; the solo results carry the k-coverage check.
	refs := make([]string, len(specs))
	pin := newChain()
	for i, sp := range specs {
		res, err := scenario.Run(context.Background(), sp.Scenario, scenario.WithMaxRounds(*sp.MaxRounds))
		if err != nil {
			return nil, fmt.Errorf("solo run of %s: %w", sp.Scenario.Name, err)
		}
		reg, err := sp.Scenario.BuildRegion()
		if err != nil {
			return nil, err
		}
		refs[i] = chk.result("solo "+sp.Scenario.Name, res, reg, sp.Scenario.Config.K, false)
		pin.add(refs[i])
	}
	checkPin(chk, fmt.Sprintf("daemon/solo/seed-%d", cfg.seed), pin.sum())

	var lat, first, submits, results, waits, runsT, events []float64
	perKind := make(map[string][]float64)
	for _, r := range runs {
		kind := specs[r.spec].Scenario.Name
		if !chk.op(fmt.Sprintf("job %s (%s)", r.id, kind), r.err) {
			continue
		}
		chk.expect(fmt.Sprintf("job %s (%s) vs solo run", r.id, kind), digest(r.res), refs[r.spec])
		lat = append(lat, ms(r.latency))
		first = append(first, ms(r.firstRound))
		perKind[kind] = append(perKind[kind], ms(r.latency))
		submits = append(submits, ms(r.submit))
		results = append(results, ms(r.result))
		waits = append(waits, ms(r.queueWait))
		runsT = append(runsT, ms(r.run))
		events = append(events, float64(r.events))
	}
	if len(lat) == 0 {
		return nil, fmt.Errorf("no job succeeded")
	}
	var kindMed []float64
	for _, k := range jobKinds {
		kindMed = append(kindMed, median(perKind[k]))
	}
	out := &outcome{
		passes:  passes,
		clients: daemonClients,
		conns:   daemonClients,
		details: map[string]any{"jobs": len(runs), "window_s": window.Seconds(), "job_latency_p95_ms": percentile(lat, 95), "beyond_p95": len(lat) / 20},
		endToEnd: map[string]float64{
			"setup_s":          median(setups),
			"solve_ms":         geomean(kindMed),
			"first_round_ms":   percentile(first, 50),
			"latency_p50_ms":   percentile(lat, 50),
			"latency_tail_ms":  percentile(lat, 95),
			"throughput_per_s": float64(len(lat)) / window.Seconds(),
		},
	}
	if tr != nil {
		spans := tr.snapshot()
		m := zeroLayers()
		m["service.submit_p50_ms"] = median(submits)
		m["service.result_p50_ms"] = median(results)
		m["service.queue_wait_p50_ms"] = median(waits)
		m["service.run_p50_ms"] = median(runsT)
		m["service.events_per_job"] = median(events)
		m["service.journal_syncs_per_job"] = float64(syncs0) / float64(len(specs))
		m["service.journal_sync_ms"] = median(durations(spans, "journal.sync")) / 1e6
		m["service.journal_bytes_per_job"] = float64(bytes0) / float64(len(specs))
		out.perLayer = m
	}
	meter.metrics(out.endToEnd, out.perLayer)
	return out, nil
}

// runJob submits one spec, follows its event stream to the terminal state
// and fetches its result.
func runJob(cl *service.Client, tr *tracer, parent int, cid string, spec service.JobSpec) jobRun {
	ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
	defer cancel()
	spec.ClientID = cid
	var out jobRun
	root := tr.begin("job", parent, cid)
	defer tr.end(root)
	t0 := time.Now()
	id := tr.begin("service.submit", root, cid)
	st, err := cl.Submit(ctx, spec)
	out.submit = tr.end(id)
	if err != nil {
		out.err = fmt.Errorf("submit: %w", err)
		return out
	}
	out.id = st.ID
	var final service.JobState
	var finalErr string
	id = tr.begin("service.watch", root, cid)
	watchStart := time.Now()
	err = cl.Watch(ctx, st.ID, 0, func(e service.Event) error {
		out.events++
		if e.Type == "round" && out.firstRound == 0 {
			now := time.Now()
			out.firstRound = now.Sub(t0)
			tr.record("service.watch_first_round", id, cid, watchStart, now)
		}
		if e.Type == "state" && e.State.Terminal() {
			final, finalErr = e.State, e.Error
		}
		return nil
	})
	tr.end(id)
	switch {
	case err != nil:
		out.err = fmt.Errorf("watch: %w", err)
		return out
	case final != service.StateDone:
		out.err = fmt.Errorf("job ended %s: %s", final, finalErr)
		return out
	}
	id = tr.begin("service.result", root, cid)
	out.res, err = cl.Result(ctx, st.ID)
	out.result = tr.end(id)
	out.latency = time.Since(t0)
	if err != nil {
		out.err = fmt.Errorf("result: %w", err)
		return out
	}
	if tr != nil {
		id = tr.begin("service.status", root, cid)
		js, err := cl.Job(ctx, st.ID)
		tr.end(id)
		if err != nil {
			out.err = fmt.Errorf("status: %w", err)
			return out
		}
		if js.StartedAt != nil && js.FinishedAt != nil {
			out.queueWait = js.StartedAt.Sub(js.SubmittedAt)
			out.run = js.FinishedAt.Sub(*js.StartedAt)
		}
	}
	return out
}

// timedFS is the real filesystem with the journal's writes and fsyncs
// counted and timed — passed to the daemon through Config.FS in traced runs.
type timedFS struct {
	fault.OS
	tr           *tracer
	syncs, bytes atomic.Int64
}

func (f *timedFS) Create(path string) (fault.File, error) { return f.wrap(f.OS.Create(path)) }

func (f *timedFS) Append(path string) (fault.File, error) { return f.wrap(f.OS.Append(path)) }

func (f *timedFS) SyncDir(dir string) error {
	id := f.tr.begin("journal.syncdir", 0, "")
	defer f.tr.end(id)
	f.syncs.Add(1)
	return f.OS.SyncDir(dir)
}

func (f *timedFS) wrap(file fault.File, err error) (fault.File, error) {
	if err != nil {
		return nil, err
	}
	return &timedFile{File: file, fs: f}, nil
}

type timedFile struct {
	fault.File
	fs *timedFS
}

func (t *timedFile) Write(p []byte) (int, error) {
	n, err := t.File.Write(p)
	t.fs.bytes.Add(int64(n))
	return n, err
}

func (t *timedFile) Sync() error {
	id := t.fs.tr.begin("journal.sync", 0, "")
	defer t.fs.tr.end(id)
	t.fs.syncs.Add(1)
	return t.File.Sync()
}
