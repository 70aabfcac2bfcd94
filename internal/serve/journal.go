package serve

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// Journal metrics (promauto idiom; see internal/batch/obs.go for the
// conventions). Several journals may coexist in one process (tests), so
// counters accumulate and assertions read deltas.
var (
	mJournalRecords = obs.NewCounterVec("ohm_journal_records_total",
		"Journal records appended, by record type.", "type")
	mJournalErrors = obs.NewCounter("ohm_journal_errors_total",
		"Journal appends that failed (durability degraded, service continued).")
	mJournalCompactions = obs.NewCounter("ohm_journal_compactions_total",
		"Journal rewrites that folded history into its compact form.")
	mJournalReplayed = obs.NewCounterVec("ohm_journal_replayed_jobs_total",
		"Jobs reconstructed from the journal at startup, by disposition (requeued, terminal, failed).", "disposition")
	mJournalBytes = obs.NewGauge("ohm_journal_bytes",
		"Bytes in live job journals (torn tails excluded).")
)

// Journal record types. One JSONL line per event:
//
//	submit   a job was accepted (synced; carries the original request)
//	cells    per-cell completion watermark (unsynced, throttled)
//	finish   the job reached a terminal state (synced)
//	archived compacted form of a finished job: status only, no request
//
// Sync policy: records that change what a restart must do (submit,
// finish, archived) are fsynced before the caller proceeds; cells
// watermarks are plain appends whose loss is harmless — a job replayed
// without them simply re-queues as if it never started, and every cell
// it had completed is already in the content-addressed result cache, so
// the re-run is warm. Replay skips record types it does not know, such
// as the start records older journals carry.
const (
	recSubmit   = "submit"
	recCells    = "cells"
	recFinish   = "finish"
	recArchived = "archived"
)

// journalRecord is the wire form of one journal line. Fields are a union
// across record types; see the type constants above for which apply.
type journalRecord struct {
	T      string    `json:"t"`
	ID     string    `json:"id"`
	At     time.Time `json:"at,omitempty"`
	Tenant string    `json:"tenant,omitempty"`

	// submit
	Req *Request `json:"req,omitempty"`

	// cells watermark
	Done  int `json:"done,omitempty"`
	Total int `json:"total,omitempty"`
	Hits  int `json:"hits,omitempty"`
	Sim   int `json:"sim,omitempty"`

	// finish / archived
	State State  `json:"state,omitempty"`
	Error string `json:"error,omitempty"`
	// archived keeps enough of the request to answer GET /v1/jobs/{id}
	// without pinning the full spec.
	Kind       string    `json:"kind,omitempty"`
	Experiment string    `json:"experiment,omitempty"`
	Created    time.Time `json:"created,omitempty"`
	Finished   time.Time `json:"finished,omitempty"`
}

// ReplayedJob is one job reconstructed from the journal: either a
// terminal job to re-enter into bounded history (results were in-memory
// only and are gone — the per-cell reports survive in the result cache,
// the rendered payload does not), or a pending job to re-queue. Since
// every cell a pending job had completed is already in the
// content-addressed cache, its re-run is warm and completes
// byte-identical with near-zero recomputation.
type ReplayedJob struct {
	ID                     string
	Tenant                 string
	Req                    Request // zero for archived jobs
	Kind                   string
	Experiment             string
	State                  State // StateQueued for jobs to re-queue
	Error                  string
	Created                time.Time
	Finished               time.Time
	Done, Total, Hits, Sim int
}

// Terminal reports whether the replayed job finished before the crash.
func (r ReplayedJob) Terminal() bool { return r.State.Terminal() }

// defaultCompactBytes triggers a rewrite when the journal file outgrows
// it; watermark records dominate growth and all fold away.
const defaultCompactBytes = 1 << 20

// Journal is the manager's durable job log: an append-only JSONL file
// recording submissions, state transitions and per-cell completion
// watermarks, replayed at startup so a coordinator restart resumes
// queued and running jobs instead of losing them.
//
// Appends go to the end of one open file; records that a restart depends
// on are fsynced (see the record-type comment). A torn final line — the
// crash landed mid-write — is detected at open and truncated away, never
// parsed. Compaction rewrites the whole file through a temp file +
// rename (the same crash-safe idiom the result cache uses), so a crash
// during compaction leaves either the old journal or the new one, never
// a blend.
type Journal struct {
	// CompactBytes triggers Compact when the file outgrows it; <=0 means
	// the default (1 MiB). Set before use.
	CompactBytes int64

	path string

	mu    sync.Mutex
	f     *os.File
	bytes int64
}

// OpenJournal opens (creating if needed) the journal at path, replays
// its records, and returns the journal ready for appends plus every job
// the log knows about in submission order. A trailing torn line is
// truncated. The parent directory is created if missing.
func OpenJournal(path string) (*Journal, []ReplayedJob, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, nil, fmt.Errorf("serve: journal dir: %w", err)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("serve: open journal: %w", err)
	}
	jobs, good, err := replay(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	// Drop a torn tail (crash mid-append) so future appends extend a
	// well-formed log instead of gluing onto half a record.
	if err := f.Truncate(good); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("serve: truncate torn journal tail: %w", err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("serve: seek journal: %w", err)
	}
	j := &Journal{path: path, f: f, bytes: good}
	mJournalBytes.Add(good)
	return j, jobs, nil
}

// replay scans the journal, folding records into per-job state. It
// returns the jobs in submission order and the byte offset of the last
// fully parsed line (everything beyond it is a torn tail).
func replay(r io.Reader) ([]ReplayedJob, int64, error) {
	byID := make(map[string]*ReplayedJob)
	var order []string
	var good int64
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), maxSubmitBytes+64*1024)
	for sc.Scan() {
		line := sc.Bytes()
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			// A malformed line mid-file would desynchronize everything
			// after it; only the *final* line may be torn, so stop here
			// and truncate the rest.
			break
		}
		good += int64(len(line)) + 1 // the scanner ate the newline
		j := byID[rec.ID]
		if j == nil && rec.ID != "" {
			j = &ReplayedJob{ID: rec.ID, State: StateQueued}
			byID[rec.ID] = j
			order = append(order, rec.ID)
		}
		if j == nil {
			continue
		}
		switch rec.T {
		case recSubmit:
			j.Tenant = rec.Tenant
			j.Created = rec.At
			if rec.Req != nil {
				j.Req = *rec.Req
				j.Kind = rec.Req.Kind()
				j.Experiment = rec.Req.Experiment
			}
		case recCells:
			j.Done, j.Total, j.Hits, j.Sim = rec.Done, rec.Total, rec.Hits, rec.Sim
		case recFinish:
			j.State = rec.State
			j.Error = rec.Error
			j.Finished = rec.At
		case recArchived:
			j.Tenant = rec.Tenant
			j.Kind = rec.Kind
			j.Experiment = rec.Experiment
			j.State = rec.State
			j.Error = rec.Error
			j.Created = rec.Created
			j.Finished = rec.Finished
			j.Done, j.Total, j.Hits, j.Sim = rec.Done, rec.Total, rec.Hits, rec.Sim
		}
	}
	if err := sc.Err(); err != nil && !errors.Is(err, bufio.ErrTooLong) {
		return nil, 0, fmt.Errorf("serve: scan journal: %w", err)
	}
	jobs := make([]ReplayedJob, 0, len(order))
	for _, id := range order {
		jobs = append(jobs, *byID[id])
	}
	sort.SliceStable(jobs, func(a, b int) bool {
		return jobSeq(jobs[a].ID) < jobSeq(jobs[b].ID)
	})
	return jobs, good, nil
}

// jobSeq parses the numeric suffix of a "job-000042" id; 0 if malformed.
func jobSeq(id string) int {
	n, _ := strconv.Atoi(strings.TrimPrefix(id, "job-"))
	return n
}

// Size returns the current journal size in bytes.
func (j *Journal) Size() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.bytes
}

// append writes one record as a JSONL line, fsyncing when sync is set.
func (j *Journal) append(rec journalRecord, sync bool) error {
	data, err := json.Marshal(rec)
	if err != nil {
		mJournalErrors.Inc()
		return fmt.Errorf("serve: journal encode: %w", err)
	}
	data = append(data, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return errors.New("serve: journal closed")
	}
	if _, err := j.f.Write(data); err != nil {
		mJournalErrors.Inc()
		return fmt.Errorf("serve: journal append: %w", err)
	}
	if sync {
		if err := j.f.Sync(); err != nil {
			mJournalErrors.Inc()
			return fmt.Errorf("serve: journal sync: %w", err)
		}
	}
	j.bytes += int64(len(data))
	mJournalBytes.Add(int64(len(data)))
	mJournalRecords.With(rec.T).Inc()
	return nil
}

// Submit durably records an accepted job; the submission fails if this
// does (a job the journal never saw would silently vanish on restart).
func (j *Journal) Submit(id, tenant string, req Request, created time.Time) error {
	return j.append(journalRecord{T: recSubmit, ID: id, Tenant: tenant, Req: &req, At: created}, true)
}

// Cells records a per-cell completion watermark (unsynced: a job replayed
// without it re-runs warm against the result cache).
func (j *Journal) Cells(id string, done, total, hits, sim int) error {
	return j.append(journalRecord{T: recCells, ID: id, Done: done, Total: total, Hits: hits, Sim: sim}, false)
}

// Finish durably records a terminal state.
func (j *Journal) Finish(id string, state State, errMsg string, at time.Time) error {
	return j.append(journalRecord{T: recFinish, ID: id, State: state, Error: errMsg, At: at}, true)
}

// compactBytes resolves the compaction threshold.
func (j *Journal) compactBytes() int64 {
	if j.CompactBytes > 0 {
		return j.CompactBytes
	}
	return defaultCompactBytes
}

// NeedsCompaction reports whether the file has outgrown the threshold.
func (j *Journal) NeedsCompaction() bool {
	return j.Size() > j.compactBytes()
}

// Compact atomically replaces the journal with the given records — the
// caller's snapshot of every job worth remembering (terminal jobs as
// archived one-liners, live jobs as fresh submit records). The rewrite
// goes through a temp file + fsync + rename, so a crash mid-compaction
// leaves a valid journal either way.
func (j *Journal) Compact(recs []journalRecord) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return errors.New("serve: journal closed")
	}
	dir := filepath.Dir(j.path)
	tmp, err := os.CreateTemp(dir, "journal-*.tmp")
	if err != nil {
		mJournalErrors.Inc()
		return fmt.Errorf("serve: compact: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after the rename
	var written int64
	w := bufio.NewWriter(tmp)
	for _, rec := range recs {
		data, err := json.Marshal(rec)
		if err != nil {
			tmp.Close()
			mJournalErrors.Inc()
			return fmt.Errorf("serve: compact encode: %w", err)
		}
		data = append(data, '\n')
		n, err := w.Write(data)
		written += int64(n)
		if err != nil {
			tmp.Close()
			mJournalErrors.Inc()
			return fmt.Errorf("serve: compact write: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		tmp.Close()
		mJournalErrors.Inc()
		return fmt.Errorf("serve: compact flush: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		mJournalErrors.Inc()
		return fmt.Errorf("serve: compact sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		mJournalErrors.Inc()
		return fmt.Errorf("serve: compact close: %w", err)
	}
	if err := os.Rename(tmp.Name(), j.path); err != nil {
		mJournalErrors.Inc()
		return fmt.Errorf("serve: compact rename: %w", err)
	}
	// The old fd now points at an unlinked inode; reopen the new file
	// for further appends.
	nf, err := os.OpenFile(j.path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		mJournalErrors.Inc()
		return fmt.Errorf("serve: compact reopen: %w", err)
	}
	j.f.Close()
	j.f = nf
	mJournalBytes.Add(written - j.bytes)
	j.bytes = written
	mJournalCompactions.Inc()
	return nil
}

// Close releases the journal file. Appends after Close error.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	mJournalBytes.Add(-j.bytes)
	j.bytes = 0
	return err
}
