package service

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"laacad/internal/fault"
)

// The job journal is the durable heart of the server: an append-only log of
// job-state transition records replacing the rewrite-whole-file spool. Each
// record is one length+CRC-framed JSON Job snapshot; the latest record per
// job ID wins on replay. The format is
//
//	[uint32 LE payload length][uint32 LE CRC-32 (IEEE) of payload][payload]
//
// appended to numbered segment files (00000001.wal, 00000002.wal, ...) with
// rotation at SegmentMaxBytes. One append is one frame in one Write call, so
// a crash can only produce a *torn tail*: a frame prefix at the end of the
// last segment, which recovery detects (incomplete frame) and truncates back
// to the last valid record. Anything else that fails the CRC or the framing
// mid-segment is *corruption* — a different animal, preserved byte-for-byte
// under quarantine/ instead of being silently skipped, with recovery
// resyncing to the next CRC-valid frame so records behind the damage are not
// lost.
//
// Durability policy (SyncPolicy): under SyncAlways (the default) every
// append is fsynced before the transition is acknowledged, and segment
// create/rotate/rename boundaries fsync the directory — a crash loses at
// most the in-flight transition, never an acknowledged one. SyncNone leaves
// flushing to the OS for throughput benchmarking; the frame format still
// confines damage to the tail.
//
// Compaction: transitions accumulate dead records (a done job's queued and
// running records). When the live/total ratio drops below CompactLiveRatio
// (with at least CompactMinRecords written), a background pass rewrites the
// live set into a fresh segment numbered after every existing one and
// removes the old segments. Replay order makes this crash-safe at every
// instant: the compacted segment replays last, so last-wins semantics are
// unchanged whether the crash lands before the rename, between the rename
// and the removes, or mid-remove — stale segments are swept by the next
// compaction. This is what makes thousands of concurrent deployments
// spool-able: O(1) bytes per transition instead of O(job) rewrites.

// SyncPolicy selects when the journal fsyncs.
type SyncPolicy string

// Sync policies.
const (
	// SyncAlways fsyncs every append before acknowledging the transition.
	SyncAlways SyncPolicy = "always"
	// SyncNone never fsyncs explicitly; the OS flushes when it pleases.
	SyncNone SyncPolicy = "none"
)

const (
	segSuffix = ".wal"
	// maxRecordBytes is the framing sanity bound: a length field above this
	// is treated as corruption, not an allocation request.
	maxRecordBytes = 64 << 20

	defaultSegmentMaxBytes   = 4 << 20
	defaultCompactMinRecords = 256
	defaultCompactLiveRatio  = 0.5
)

// JournalOptions parameterizes OpenJournal. The zero value is ready to use.
type JournalOptions struct {
	// FS is the filesystem seam (fault injection point). Nil means the real
	// filesystem.
	FS fault.FS
	// Sync is the fsync policy; empty means SyncAlways.
	Sync SyncPolicy
	// SegmentMaxBytes rotates the active segment when it exceeds this size
	// (default 4 MiB).
	SegmentMaxBytes int64
	// CompactMinRecords is the minimum total record count before compaction
	// is considered (default 256).
	CompactMinRecords int
	// CompactLiveRatio triggers compaction when live/total drops below it
	// (default 0.5).
	CompactLiveRatio float64
}

func (o JournalOptions) withDefaults() JournalOptions {
	if o.FS == nil {
		o.FS = fault.OS{}
	}
	if o.Sync == "" {
		o.Sync = SyncAlways
	}
	if o.SegmentMaxBytes <= 0 {
		o.SegmentMaxBytes = defaultSegmentMaxBytes
	}
	if o.CompactMinRecords <= 0 {
		o.CompactMinRecords = defaultCompactMinRecords
	}
	if o.CompactLiveRatio <= 0 {
		o.CompactLiveRatio = defaultCompactLiveRatio
	}
	return o
}

// Recovery reports what OpenJournal found in the directory.
type Recovery struct {
	// Jobs is the latest durable record of every job, in Seq order.
	Jobs []*Job
	// TornTail reports that the last segment ended mid-frame (the classic
	// crash-during-append) and was truncated back to its last valid record.
	TornTail bool
	// Quarantined counts corrupt or foreign items moved to quarantine/.
	Quarantined int
	// Warnings collects non-fatal recovery problems.
	Warnings []error
}

// JournalStats is a point-in-time view of the journal's shape.
type JournalStats struct {
	Segments    int
	Records     int   // total records across all segments
	Live        int   // distinct job IDs (records a compaction would keep)
	Appends     int64 // appends since open
	Compactions int64 // compaction passes since open
	Bytes       int64 // bytes in the active segment
}

// Journal is the append-only job journal. All methods are safe for
// concurrent use; appends are serialized internally.
type Journal struct {
	dir  string
	fs   fault.FS
	opts JournalOptions

	mu          sync.Mutex
	active      fault.File
	activeSeq   int
	activeSize  int64
	segments    []int             // existing segment numbers, ascending
	latest      map[string][]byte // job ID -> latest payload
	records     int
	appends     int64
	compactions int64
	compacting  bool
	closed      bool
	warnMu      sync.Mutex
	warns       []error
	compactWG   sync.WaitGroup
}

func segName(n int) string { return fmt.Sprintf("%08d%s", n, segSuffix) }

func quarantineDir(dir string) string { return filepath.Join(dir, "quarantine") }

// frameRecord builds the on-disk frame for one payload.
func frameRecord(payload []byte) []byte {
	frame := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[8:], payload)
	return frame
}

// Record decode statuses.
const (
	recOK = iota
	// recTorn: the frame runs past the end of the data — an interrupted
	// append if it is the tail of the last segment.
	recTorn
	// recCorrupt: the frame is fully present but lies (bad length or CRC).
	recCorrupt
)

// decodeRecordAt tries to read one frame at off. n is the full frame length
// when status is recOK.
func decodeRecordAt(data []byte, off int) (payload []byte, n int, status int) {
	if off+8 > len(data) {
		return nil, 0, recTorn
	}
	length := binary.LittleEndian.Uint32(data[off : off+4])
	if length == 0 || length > maxRecordBytes {
		return nil, 0, recCorrupt
	}
	end := off + 8 + int(length)
	if end > len(data) {
		return nil, 0, recTorn
	}
	payload = data[off+8 : end]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[off+4:off+8]) {
		return nil, 0, recCorrupt
	}
	return payload, 8 + int(length), recOK
}

// segmentChunk is a damaged byte range found while scanning a segment.
type segmentChunk struct{ start, end int }

// scanSegment walks a segment's bytes, returning the intact record payloads
// in order, the damaged chunks (to quarantine), the prefix length that holds
// everything valid (keep < len(data) means the tail beyond the last valid
// record must be truncated), and whether the tail was a clean torn append
// rather than corruption.
//
// On damage the scanner resyncs: it slides forward until the next offset
// that parses as a CRC-valid frame, so records written after a corrupted one
// are recovered, not abandoned. The skipped range is reported for
// quarantine. A trailing incomplete frame with no valid frame after it is a
// torn tail — the expected shape of a crash mid-append — and is truncated
// without quarantine.
func scanSegment(data []byte) (payloads [][]byte, chunks []segmentChunk, keep int, torn bool) {
	off := 0
	keep = 0
	for off < len(data) {
		payload, n, status := decodeRecordAt(data, off)
		if status == recOK {
			payloads = append(payloads, payload)
			off += n
			keep = off
			continue
		}
		// Invalid at off: look for a later frame that parses.
		next := -1
		for o := off + 1; o+8 <= len(data); o++ {
			if _, _, st := decodeRecordAt(data, o); st == recOK {
				next = o
				break
			}
		}
		if next < 0 {
			// Nothing valid follows. A torn frame is a crashed append;
			// anything else is tail corruption.
			torn = status == recTorn
			if !torn {
				chunks = append(chunks, segmentChunk{off, len(data)})
			}
			return payloads, chunks, keep, torn
		}
		chunks = append(chunks, segmentChunk{off, next})
		off = next
	}
	return payloads, chunks, keep, false
}

// OpenJournal opens (or creates) the journal in dir, replaying every segment
// to recover the job set. Corrupt or foreign files (a stray *.json included)
// and damaged byte ranges are preserved under quarantine/, never replayed;
// each foreign file also raises a recovery warning. If recovery found
// damage or stale segments, a compaction pass rewrites the journal into a
// clean segment before new appends land.
func OpenJournal(dir string, opts JournalOptions) (*Journal, *Recovery, error) {
	opts = opts.withDefaults()
	fs := opts.FS
	jl := &Journal{dir: dir, fs: fs, opts: opts, latest: make(map[string][]byte)}
	rec := &Recovery{}
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("service: creating journal dir: %w", err)
	}
	names, err := fs.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("service: reading journal dir: %w", err)
	}

	jobs := make(map[string]*Job)
	order := []string{} // IDs in first-seen replay order (refined by Seq below)

	absorb := func(payload []byte) bool {
		var j Job
		if err := json.Unmarshal(payload, &j); err != nil || j.ID == "" {
			return false
		}
		if _, seen := jobs[j.ID]; !seen {
			order = append(order, j.ID)
		}
		jobs[j.ID] = &j
		jl.latest[j.ID] = payload
		jl.records++
		return true
	}

	quarantine := func(name string, data []byte, remove bool) {
		qdir := quarantineDir(dir)
		if err := fs.MkdirAll(qdir, 0o755); err != nil {
			rec.Warnings = append(rec.Warnings, fmt.Errorf("service: creating quarantine dir: %w", err))
			return
		}
		if err := fs.WriteFile(filepath.Join(qdir, name), data, 0o644); err != nil {
			rec.Warnings = append(rec.Warnings, fmt.Errorf("service: quarantining %s: %w", name, err))
			return
		}
		rec.Quarantined++
		if remove {
			if err := fs.Remove(filepath.Join(dir, name)); err != nil {
				rec.Warnings = append(rec.Warnings, fmt.Errorf("service: removing quarantined %s: %w", name, err))
			}
		}
	}

	var segs []int
	for _, name := range names {
		switch {
		case strings.HasSuffix(name, segSuffix):
			var n int
			if _, err := fmt.Sscanf(name, "%d.wal", &n); err != nil || segName(n) != name {
				quarantine(name, readOrEmpty(fs, filepath.Join(dir, name)), true)
				continue
			}
			segs = append(segs, n)
		case strings.HasSuffix(name, ".tmp"):
			// Half-written rotation or compaction output: superseded.
			if err := fs.Remove(filepath.Join(dir, name)); err != nil {
				rec.Warnings = append(rec.Warnings, fmt.Errorf("service: removing stale %s: %w", name, err))
			}
		default:
			// Foreign file in the journal's directory: not ours, not skipped
			// silently — preserved out of the replay path.
			rec.Warnings = append(rec.Warnings, fmt.Errorf("service: quarantining foreign file %s", name))
			quarantine(name, readOrEmpty(fs, filepath.Join(dir, name)), true)
		}
	}
	sort.Ints(segs)

	dirty := false // a segment carried damage or stale data worth compacting away
	for i, n := range segs {
		name := segName(n)
		path := filepath.Join(dir, name)
		data, err := fs.ReadFile(path)
		if err != nil {
			rec.Warnings = append(rec.Warnings, fmt.Errorf("service: reading segment %s: %w", name, err))
			dirty = true
			continue
		}
		payloads, chunks, keep, torn := scanSegment(data)
		for _, p := range payloads {
			if !absorb(p) {
				// CRC-valid but not a job record: foreign or software-bug
				// bytes — quarantine the record, keep replaying.
				quarantine(fmt.Sprintf("%s@%d.rec", name, jl.records), p, false)
				dirty = true
			}
		}
		for _, c := range chunks {
			quarantine(fmt.Sprintf("%s@%d.corrupt", name, c.start), data[c.start:c.end], false)
			dirty = true
		}
		if keep < len(data) {
			if torn && i == len(segs)-1 {
				rec.TornTail = true
			} else {
				dirty = true
			}
			if err := fs.Truncate(path, int64(keep)); err != nil {
				rec.Warnings = append(rec.Warnings, fmt.Errorf("service: truncating %s: %w", name, err))
				// Appending after unremoved garbage would corrupt the log:
				// retire this segment and start a fresh one instead.
				dirty = true
				if i == len(segs)-1 {
					segs = append(segs, n+1)
					if err := fs.WriteFile(filepath.Join(dir, segName(n+1)), nil, 0o644); err != nil {
						return nil, nil, fmt.Errorf("service: starting fresh segment: %w", err)
					}
				}
			}
		}
	}
	if len(segs) == 0 {
		segs = append(segs, 1)
		if err := fs.WriteFile(filepath.Join(dir, segName(1)), nil, 0o644); err != nil {
			return nil, nil, fmt.Errorf("service: creating first segment: %w", err)
		}
		if err := fs.SyncDir(dir); err != nil {
			rec.Warnings = append(rec.Warnings, fmt.Errorf("service: syncing journal dir: %w", err))
		}
	}
	jl.segments = segs
	jl.activeSeq = segs[len(segs)-1]

	// Open the tail segment for appending.
	activePath := filepath.Join(dir, segName(jl.activeSeq))
	if data, err := fs.ReadFile(activePath); err == nil {
		jl.activeSize = int64(len(data))
	}
	f, err := fs.Append(activePath)
	if err != nil {
		return nil, nil, fmt.Errorf("service: opening active segment: %w", err)
	}
	jl.active = f

	// Order the recovered jobs by submission sequence for deterministic
	// scheduler recovery.
	sort.SliceStable(order, func(a, b int) bool { return jobs[order[a]].Seq < jobs[order[b]].Seq })
	for _, id := range order {
		rec.Jobs = append(rec.Jobs, jobs[id])
	}

	// Recovery found damage, stale compaction leftovers, or a ratio already
	// under water: rewrite into a clean segment now, synchronously, so the
	// quarantined bytes are the only trace of the damage.
	if dirty || (len(segs) > 1 && jl.needsCompactLocked()) {
		jl.mu.Lock()
		if err := jl.compactLocked(); err != nil {
			rec.Warnings = append(rec.Warnings, err)
		}
		jl.mu.Unlock()
	}
	return jl, rec, nil
}

func readOrEmpty(fs fault.FS, path string) []byte {
	data, err := fs.ReadFile(path)
	if err != nil {
		return nil
	}
	return data
}

// Append durably records the payload as job id's latest state. Under
// SyncAlways the record has reached stable storage when Append returns.
func (jl *Journal) Append(id string, payload []byte) error {
	jl.mu.Lock()
	defer jl.mu.Unlock()
	if err := jl.append(id, payload); err != nil {
		return err
	}
	jl.latest[id] = payload
	jl.records++
	jl.appends++
	if jl.needsCompactLocked() && !jl.compacting {
		jl.compacting = true
		jl.compactWG.Add(1)
		go func() {
			defer jl.compactWG.Done()
			jl.mu.Lock()
			defer jl.mu.Unlock()
			defer func() { jl.compacting = false }()
			if err := jl.compactLocked(); err != nil {
				jl.warn(err)
			}
		}()
	}
	return nil
}

// append writes one frame to the active segment, rotating first when full.
// Caller holds mu (or is single-threaded during open).
func (jl *Journal) append(id string, payload []byte) error {
	if jl.closed {
		return fmt.Errorf("service: journal closed")
	}
	frame := frameRecord(payload)
	if jl.activeSize > 0 && jl.activeSize+int64(len(frame)) > jl.opts.SegmentMaxBytes {
		if err := jl.rotateLocked(); err != nil {
			return err
		}
	}
	if _, err := jl.active.Write(frame); err != nil {
		return fmt.Errorf("service: journaling job %s: %w", id, err)
	}
	if jl.opts.Sync == SyncAlways {
		if err := jl.active.Sync(); err != nil {
			return fmt.Errorf("service: syncing journal for job %s: %w", id, err)
		}
	}
	jl.activeSize += int64(len(frame))
	return nil
}

// rotateLocked closes the active segment and starts the next one.
func (jl *Journal) rotateLocked() error {
	if err := jl.active.Close(); err != nil {
		jl.warn(fmt.Errorf("service: closing segment %d: %w", jl.activeSeq, err))
	}
	next := jl.activeSeq + 1
	f, err := jl.fs.Create(filepath.Join(jl.dir, segName(next)))
	if err != nil {
		// Reopen the old segment: appends must keep landing somewhere.
		if re, rerr := jl.fs.Append(filepath.Join(jl.dir, segName(jl.activeSeq))); rerr == nil {
			jl.active = re
		}
		return fmt.Errorf("service: rotating journal: %w", err)
	}
	if err := jl.fs.SyncDir(jl.dir); err != nil {
		jl.warn(fmt.Errorf("service: syncing journal dir: %w", err))
	}
	jl.active = f
	jl.activeSeq = next
	jl.activeSize = 0
	jl.segments = append(jl.segments, next)
	return nil
}

// needsCompactLocked is the live/total ratio trigger.
func (jl *Journal) needsCompactLocked() bool {
	return jl.records >= jl.opts.CompactMinRecords &&
		float64(len(jl.latest)) < jl.opts.CompactLiveRatio*float64(jl.records)
}

// compactLocked rewrites the live set into a fresh segment numbered after
// every existing one, then removes the old segments. Crash-safe by replay
// order: the compacted segment replays last, so whichever prefix of this
// sequence survives a crash, recovery sees the same final state.
func (jl *Journal) compactLocked() error {
	next := jl.activeSeq + 1
	tmp := filepath.Join(jl.dir, segName(next)+".tmp")
	f, err := jl.fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("service: compacting journal: %w", err)
	}
	ids := make([]string, 0, len(jl.latest))
	for id := range jl.latest {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var size int64
	for _, id := range ids {
		frame := frameRecord(jl.latest[id])
		if _, err := f.Write(frame); err != nil {
			f.Close()
			return fmt.Errorf("service: compacting journal: %w", err)
		}
		size += int64(len(frame))
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("service: syncing compacted segment: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("service: closing compacted segment: %w", err)
	}
	if err := jl.fs.Rename(tmp, filepath.Join(jl.dir, segName(next))); err != nil {
		return fmt.Errorf("service: publishing compacted segment: %w", err)
	}
	if err := jl.fs.SyncDir(jl.dir); err != nil {
		jl.warn(fmt.Errorf("service: syncing journal dir: %w", err))
	}
	// The compacted segment is durable; everything before it is dead weight.
	if jl.active != nil {
		if err := jl.active.Close(); err != nil {
			jl.warn(fmt.Errorf("service: closing old active segment: %w", err))
		}
	}
	old := jl.segments
	for _, n := range old {
		if err := jl.fs.Remove(filepath.Join(jl.dir, segName(n))); err != nil {
			jl.warn(fmt.Errorf("service: removing stale segment %d: %w", n, err))
		}
	}
	if err := jl.fs.SyncDir(jl.dir); err != nil {
		jl.warn(fmt.Errorf("service: syncing journal dir: %w", err))
	}
	active, err := jl.fs.Append(filepath.Join(jl.dir, segName(next)))
	if err != nil {
		return fmt.Errorf("service: reopening compacted segment: %w", err)
	}
	jl.active = active
	jl.activeSeq = next
	jl.activeSize = size
	jl.segments = []int{next}
	jl.records = len(jl.latest)
	jl.compactions++
	return nil
}

// Close waits for background work and closes the active segment.
func (jl *Journal) Close() error {
	jl.compactWG.Wait()
	jl.mu.Lock()
	defer jl.mu.Unlock()
	if jl.closed {
		return nil
	}
	jl.closed = true
	return jl.active.Close()
}

// Stats returns the journal's current shape.
func (jl *Journal) Stats() JournalStats {
	jl.mu.Lock()
	defer jl.mu.Unlock()
	return JournalStats{
		Segments:    len(jl.segments),
		Records:     jl.records,
		Live:        len(jl.latest),
		Appends:     jl.appends,
		Compactions: jl.compactions,
		Bytes:       jl.activeSize,
	}
}

func (jl *Journal) warn(err error) {
	jl.warnMu.Lock()
	defer jl.warnMu.Unlock()
	jl.warns = append(jl.warns, err)
}

// Warnings drains the journal's background warnings.
func (jl *Journal) Warnings() []error {
	jl.warnMu.Lock()
	defer jl.warnMu.Unlock()
	out := jl.warns
	jl.warns = nil
	return out
}

// LoadJobs replays the journal in dir read-only and returns the latest
// record of every job — the inspection path for tools and tests (the daemon
// itself holds the journal open via OpenJournal).
func LoadJobs(dir string) ([]*Job, error) {
	fs := fault.OS{}
	names, err := fs.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("service: reading journal dir: %w", err)
	}
	var segs []int
	for _, name := range names {
		var n int
		if strings.HasSuffix(name, segSuffix) {
			if _, err := fmt.Sscanf(name, "%d.wal", &n); err == nil && segName(n) == name {
				segs = append(segs, n)
			}
		}
	}
	sort.Ints(segs)
	jobs := make(map[string]*Job)
	var order []string
	for _, n := range segs {
		data, err := fs.ReadFile(filepath.Join(dir, segName(n)))
		if err != nil {
			return nil, err
		}
		payloads, _, _, _ := scanSegment(data)
		for _, p := range payloads {
			var j Job
			if json.Unmarshal(p, &j) != nil || j.ID == "" {
				continue
			}
			if _, seen := jobs[j.ID]; !seen {
				order = append(order, j.ID)
			}
			jobs[j.ID] = &j
		}
	}
	sort.SliceStable(order, func(a, b int) bool { return jobs[order[a]].Seq < jobs[order[b]].Seq })
	out := make([]*Job, 0, len(order))
	for _, id := range order {
		out = append(out, jobs[id])
	}
	return out, nil
}
