package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"laacad/internal/fault"
)

// Barrier waits for any in-flight background compaction to finish, so a
// test can read compaction results deterministically.
func (jl *Journal) Barrier() { jl.compactWG.Wait() }

// jobPayload builds a minimal valid job record for journal-level tests.
func jobPayload(t *testing.T, id string, seq uint64, state JobState) []byte {
	t.Helper()
	data, err := json.Marshal(&Job{ID: id, Seq: seq, State: state, Slot: -1})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func mustOpen(t *testing.T, dir string, opts JournalOptions) (*Journal, *Recovery) {
	t.Helper()
	jl, rec, err := OpenJournal(dir, opts)
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	return jl, rec
}

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	jl, rec := mustOpen(t, dir, JournalOptions{})
	if len(rec.Jobs) != 0 || rec.Quarantined != 0 || rec.TornTail {
		t.Fatalf("fresh dir recovery = %+v", rec)
	}
	// Three jobs, several transitions each; the last record per job wins.
	for _, step := range []struct {
		id    string
		seq   uint64
		state JobState
	}{
		{"job-000001", 1, StateQueued},
		{"job-000002", 2, StateQueued},
		{"job-000001", 1, StateRunning},
		{"job-000003", 3, StateQueued},
		{"job-000001", 1, StateDone},
		{"job-000002", 2, StateRunning},
	} {
		if err := jl.Append(step.id, jobPayload(t, step.id, step.seq, step.state)); err != nil {
			t.Fatal(err)
		}
	}
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}

	_, rec2 := mustOpen(t, dir, JournalOptions{})
	if len(rec2.Jobs) != 3 {
		t.Fatalf("recovered %d jobs, want 3", len(rec2.Jobs))
	}
	want := map[string]JobState{"job-000001": StateDone, "job-000002": StateRunning, "job-000003": StateQueued}
	for _, j := range rec2.Jobs {
		if j.State != want[j.ID] {
			t.Errorf("job %s recovered as %s, want %s", j.ID, j.State, want[j.ID])
		}
	}
	// Seq order.
	for i, j := range rec2.Jobs {
		if j.Seq != uint64(i+1) {
			t.Errorf("recovery order: jobs[%d].Seq = %d", i, j.Seq)
		}
	}
}

func TestJournalSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force rotation; huge compaction threshold disables
	// compaction so the segment count is observable.
	jl, _ := mustOpen(t, dir, JournalOptions{SegmentMaxBytes: 256, CompactMinRecords: 1 << 30})
	for i := 0; i < 50; i++ {
		id := fmt.Sprintf("job-%06d", i+1)
		if err := jl.Append(id, jobPayload(t, id, uint64(i+1), StateQueued)); err != nil {
			t.Fatal(err)
		}
	}
	st := jl.Stats()
	if st.Segments < 2 {
		t.Fatalf("segments = %d, want rotation to have produced several", st.Segments)
	}
	if st.Records != 50 || st.Live != 50 {
		t.Fatalf("stats = %+v, want 50 records, 50 live", st)
	}
	jl.Close()

	_, rec := mustOpen(t, dir, JournalOptions{CompactMinRecords: 1 << 30})
	if len(rec.Jobs) != 50 {
		t.Fatalf("recovered %d jobs across segments, want 50", len(rec.Jobs))
	}
}

func TestJournalCompaction(t *testing.T) {
	dir := t.TempDir()
	jl, _ := mustOpen(t, dir, JournalOptions{CompactMinRecords: 16, CompactLiveRatio: 0.5})
	// One job, many transitions: live/total collapses and compaction fires.
	for i := 0; i < 64; i++ {
		if err := jl.Append("job-000001", jobPayload(t, "job-000001", 1, StateRunning)); err != nil {
			t.Fatal(err)
		}
	}
	jl.Barrier()
	st := jl.Stats()
	if st.Compactions == 0 {
		t.Fatalf("no compaction after 64 dead transitions: %+v", st)
	}
	if st.Live != 1 {
		t.Fatalf("live = %d, want 1", st.Live)
	}
	if st.Records > 16 {
		t.Fatalf("records = %d after compaction, want few", st.Records)
	}
	// The journal still appends and recovers after compaction.
	if err := jl.Append("job-000002", jobPayload(t, "job-000002", 2, StateQueued)); err != nil {
		t.Fatal(err)
	}
	jl.Close()
	_, rec := mustOpen(t, dir, JournalOptions{})
	if len(rec.Jobs) != 2 {
		t.Fatalf("recovered %d jobs after compaction, want 2", len(rec.Jobs))
	}
}

func TestJournalTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	jl, _ := mustOpen(t, dir, JournalOptions{})
	jl.Append("job-000001", jobPayload(t, "job-000001", 1, StateQueued))
	jl.Append("job-000002", jobPayload(t, "job-000002", 2, StateQueued))
	jl.Close()

	// Tear the last frame: chop bytes off the end of the segment.
	seg := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	_, rec := mustOpen(t, dir, JournalOptions{})
	if !rec.TornTail {
		t.Error("recovery did not report the torn tail")
	}
	if rec.Quarantined != 0 {
		t.Errorf("a torn tail is not corruption; quarantined = %d", rec.Quarantined)
	}
	if len(rec.Jobs) != 1 || rec.Jobs[0].ID != "job-000001" {
		t.Fatalf("recovered %v, want exactly job-000001", rec.Jobs)
	}
}

func TestJournalCorruptionQuarantinedWithResync(t *testing.T) {
	dir := t.TempDir()
	jl, _ := mustOpen(t, dir, JournalOptions{})
	jl.Append("job-000001", jobPayload(t, "job-000001", 1, StateQueued))
	jl.Append("job-000002", jobPayload(t, "job-000002", 2, StateQueued))
	jl.Append("job-000003", jobPayload(t, "job-000003", 3, StateQueued))
	jl.Close()

	// Flip a byte inside the middle record's payload: CRC fails, but the
	// scanner must resync and still recover job-000003.
	seg := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	first := len(jobPayload(t, "job-000001", 1, StateQueued)) + 8
	data[first+12] ^= 0xFF
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, rec := mustOpen(t, dir, JournalOptions{})
	if rec.Quarantined == 0 {
		t.Fatal("corruption was not quarantined")
	}
	got := map[string]bool{}
	for _, j := range rec.Jobs {
		got[j.ID] = true
	}
	if !got["job-000001"] || !got["job-000003"] || got["job-000002"] {
		t.Fatalf("recovered %v, want 1 and 3 (2 was corrupted)", got)
	}
	// The damaged bytes are preserved under quarantine/.
	names, err := fault.OS{}.ReadDir(quarantineDir(dir))
	if err != nil || len(names) == 0 {
		t.Fatalf("quarantine dir: %v, %v", names, err)
	}
	// Recovery compacts the damage away: a further reopen is clean.
	_, rec2 := mustOpen(t, dir, JournalOptions{})
	if rec2.Quarantined != 0 {
		t.Errorf("reopen re-quarantined %d records; damage should have been compacted away", rec2.Quarantined)
	}
	if len(rec2.Jobs) != 2 {
		t.Errorf("reopen recovered %d jobs, want 2", len(rec2.Jobs))
	}
}

// A stray <id>.json in the journal directory — say, a whole-file job record
// from an old spool — is a foreign file: quarantined with a warning, its
// bytes preserved, and never replayed as a job.
func TestJournalQuarantinesStrayJSON(t *testing.T) {
	dir := t.TempDir()
	const name = "job-000001.json"
	data, _ := json.Marshal(&Job{ID: "job-000001", Seq: 1, State: StateQueued, Slot: -1})
	if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
		t.Fatal(err)
	}
	jl, rec := mustOpen(t, dir, JournalOptions{})
	jl.Close()
	if len(rec.Jobs) != 0 {
		t.Errorf("stray JSON replayed as %d job(s), want none", len(rec.Jobs))
	}
	if rec.Quarantined != 1 {
		t.Errorf("quarantined = %d, want 1", rec.Quarantined)
	}
	warned := false
	for _, w := range rec.Warnings {
		warned = warned || strings.Contains(w.Error(), name)
	}
	if !warned {
		t.Errorf("no recovery warning names %s: %v", name, rec.Warnings)
	}
	kept, err := os.ReadFile(filepath.Join(quarantineDir(dir), name))
	if err != nil {
		t.Fatalf("stray file not preserved under quarantine/: %v", err)
	}
	if !bytes.Equal(kept, data) {
		t.Error("quarantined copy differs from the stray file")
	}
	// The journal itself never absorbed it: a reopen recovers nothing.
	_, rec2 := mustOpen(t, dir, JournalOptions{})
	if len(rec2.Jobs) != 0 || rec2.Quarantined != 0 {
		t.Errorf("reopen: jobs = %d, quarantined = %d, want 0 and 0", len(rec2.Jobs), rec2.Quarantined)
	}
}

func TestLoadJobsReadsJournal(t *testing.T) {
	dir := t.TempDir()
	jl, _ := mustOpen(t, dir, JournalOptions{})
	jl.Append("job-000001", jobPayload(t, "job-000001", 1, StateQueued))
	jl.Append("job-000001", jobPayload(t, "job-000001", 1, StateDone))
	jl.Append("job-000002", jobPayload(t, "job-000002", 2, StateQueued))
	jl.Close()
	jobs, err := LoadJobs(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 || jobs[0].State != StateDone || jobs[1].State != StateQueued {
		t.Fatalf("LoadJobs = %+v", jobs)
	}
}

// TestTornWriteRecoveryMatrix replays the same append sequence against a
// fault.Inject FS that tears the write stream at byte k — for every k in the
// journal — and proves recovery at each tear point: every record whose frame
// landed fully before the tear survives, the torn tail is truncated (never
// quarantined), and the journal remains appendable.
func TestTornWriteRecoveryMatrix(t *testing.T) {
	// Size the journal once, untorn, to learn the total byte count and the
	// frame boundaries.
	payloads := make([][]byte, 4)
	for i := range payloads {
		id := fmt.Sprintf("job-%06d", i+1)
		payloads[i] = jobPayload(t, id, uint64(i+1), StateQueued)
	}
	var boundaries []int64 // cumulative frame end offsets
	var total int64
	for _, p := range payloads {
		total += int64(8 + len(p))
		boundaries = append(boundaries, total)
	}

	for k := int64(0); k <= total; k++ {
		dir := t.TempDir()
		inj := fault.NewInject(fault.OS{}, fault.Rule{Op: "write", TearByte: k + 1})
		jl, _, err := OpenJournal(dir, JournalOptions{FS: inj})
		if err != nil {
			t.Fatalf("k=%d: open: %v", k, err)
		}
		for i, p := range payloads {
			if err := jl.Append(fmt.Sprintf("job-%06d", i+1), p); err != nil {
				break // the tear landed; stop like a crashed process would
			}
		}
		// No Close: simulate the process dying with the tear on disk.

		_, rec, err := OpenJournal(dir, JournalOptions{})
		if err != nil {
			t.Fatalf("k=%d: recovery: %v", k, err)
		}
		wantJobs := 0
		for _, b := range boundaries {
			if b <= k {
				wantJobs++
			}
		}
		if len(rec.Jobs) != wantJobs {
			t.Errorf("k=%d: recovered %d jobs, want %d", k, len(rec.Jobs), wantJobs)
		}
		if rec.Quarantined != 0 {
			t.Errorf("k=%d: %d quarantined; torn writes must truncate, not quarantine", k, rec.Quarantined)
		}
		midFrame := k != 0 && k != total && func() bool {
			for _, b := range boundaries {
				if b == k {
					return false
				}
			}
			return true
		}()
		if midFrame && !rec.TornTail {
			t.Errorf("k=%d: tear mid-frame not reported as torn tail", k)
		}
	}
}

// FuzzJournalRecords feeds arbitrary bytes to the segment scanner (the code
// recovery trusts with whatever a crash left on disk): it must never panic,
// and everything it accepts must be CRC-exact.
func FuzzJournalRecords(f *testing.F) {
	valid := frameRecord([]byte(`{"id":"job-000001","seq":1,"state":"queued","slot":-1}`))
	f.Add([]byte{})
	f.Add(valid)
	f.Add(valid[:len(valid)-3])                              // torn tail
	f.Add(append([]byte{0xFF, 0xFF}, valid...))              // garbage prefix, then a frame
	f.Add(append(append([]byte{}, valid...), valid[:11]...)) // frame + torn frame
	big := frameRecord(make([]byte, 1024))
	f.Add(big)
	f.Fuzz(func(t *testing.T, data []byte) {
		payloads, chunks, keep, _ := scanSegment(data)
		if keep < 0 || keep > len(data) {
			t.Fatalf("keep = %d out of range", keep)
		}
		for _, c := range chunks {
			if c.start < 0 || c.end > len(data) || c.start >= c.end {
				t.Fatalf("bad chunk %+v", c)
			}
		}
		// Re-scanning the kept prefix must reproduce exactly the same
		// records: truncation never invents or loses accepted data.
		again, _, _, _ := scanSegment(data[:keep])
		if len(again) != len(payloads) {
			t.Fatalf("rescan of kept prefix: %d records, want %d", len(again), len(payloads))
		}
	})
}

// FuzzJournalOpen drives full recovery (not just the scanner) with arbitrary
// segment bytes: OpenJournal must never panic and must always leave behind a
// journal that accepts appends.
func FuzzJournalOpen(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add(frameRecord([]byte(`{"id":"job-000001","seq":1}`)), []byte{0x01, 0x02})
	f.Fuzz(func(t *testing.T, seg1, seg2 []byte) {
		dir := t.TempDir()
		os.WriteFile(filepath.Join(dir, segName(1)), seg1, 0o644)
		os.WriteFile(filepath.Join(dir, segName(2)), seg2, 0o644)
		jl, _, err := OpenJournal(dir, JournalOptions{})
		if err != nil {
			t.Skip() // IO errors are legal outcomes; panics are not
		}
		if err := jl.Append("job-fuzz", jobPayload(t, "job-fuzz", 99, StateQueued)); err != nil {
			t.Fatalf("journal not appendable after recovery: %v", err)
		}
		jl.Close()
	})
}
