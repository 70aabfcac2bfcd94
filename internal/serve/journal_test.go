package serve

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestJournalRoundTrip pins the replay semantics: submitted jobs come
// back queued, started jobs come back queued too (a restart re-runs
// them), watermarks attach, and finished jobs come back terminal — all in
// submission order. The journal carries the start records older versions
// wrote once per job, which replay must pass over.
func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, replayed, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed) != 0 {
		t.Fatalf("fresh journal replayed %d jobs", len(replayed))
	}
	now := time.Now().UTC().Truncate(time.Second)
	req := Request{Experiment: "fig16"}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	legacyStart := func(id string) {
		t.Helper()
		_, err := j.f.WriteString(`{"t":"start","id":"` + id + `","at":"` + now.Format(time.RFC3339Nano) + `"}` + "\n")
		must(err)
	}
	must(j.Submit("job-000001", "alice", req, now))
	legacyStart("job-000001")
	must(j.Cells("job-000001", 3, 12, 1, 2))
	must(j.Submit("job-000002", "bob", req, now))
	legacyStart("job-000002")
	must(j.Finish("job-000002", StateDone, "", now))
	must(j.Close())

	j2, replayed, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(replayed) != 2 {
		t.Fatalf("replayed %d jobs, want 2", len(replayed))
	}
	r1, r2 := replayed[0], replayed[1]
	if r1.ID != "job-000001" || r2.ID != "job-000002" {
		t.Fatalf("order = %s, %s", r1.ID, r2.ID)
	}
	if r1.Terminal() || r1.State != StateQueued {
		t.Fatalf("in-flight job replayed as %s, want queued", r1.State)
	}
	if r1.Tenant != "alice" || r1.Req.Experiment != "fig16" {
		t.Fatalf("job-000001 lost its identity: %+v", r1)
	}
	if r1.Done != 3 || r1.Total != 12 || r1.Hits != 1 || r1.Sim != 2 {
		t.Fatalf("watermark = %d/%d (%d hits, %d sim)", r1.Done, r1.Total, r1.Hits, r1.Sim)
	}
	if !r1.Created.Equal(now) {
		t.Fatalf("created = %v, want %v", r1.Created, now)
	}
	if !r2.Terminal() || r2.State != StateDone || r2.Tenant != "bob" {
		t.Fatalf("finished job replayed as %+v", r2)
	}
}

// TestJournalTornTail simulates a crash mid-append: the final line is
// half a record, and reopening must truncate it away, keep everything
// before it, and accept fresh appends on the clean tail.
func TestJournalTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Submit("job-000001", "t", Request{Experiment: "fig16"}, time.Now()); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	torn := `{"t":"submit","id":"job-000002","req":{"exper`
	if _, err := f.WriteString(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, replayed, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed) != 1 || replayed[0].ID != "job-000001" {
		t.Fatalf("replayed %+v, want only job-000001", replayed)
	}
	// The torn bytes are gone from disk, and the journal appends cleanly.
	if err := j2.Submit("job-000003", "t", Request{Experiment: "fig16"}, time.Now()); err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "job-000002") {
		t.Fatal("torn record survived reopen")
	}
	_, replayed, err = OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed) != 2 {
		t.Fatalf("after torn-tail repair replayed %d jobs, want 2", len(replayed))
	}
}

// TestJournalCompaction folds a grown journal into archived one-liners
// and checks both that the file shrank and that archived jobs replay with
// their full status.
func TestJournalCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now().UTC().Truncate(time.Second)
	fin := now.Add(3 * time.Second)
	if err := j.Submit("job-000001", "t", Request{Experiment: "fig16"}, now); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 200; i++ {
		if err := j.Cells("job-000001", i, 200, 0, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Finish("job-000001", StateFailed, "boom", fin); err != nil {
		t.Fatal(err)
	}
	before := j.Size()
	err = j.Compact([]journalRecord{{
		T: recArchived, ID: "job-000001", Tenant: "t",
		State: StateFailed, Error: "boom",
		Kind: "experiment", Experiment: "fig16",
		Created: now, Finished: fin,
		Done: 200, Total: 200, Sim: 200,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if after := j.Size(); after >= before {
		t.Fatalf("compaction grew the journal: %d -> %d bytes", before, after)
	}
	// Appends after compaction land in the new file.
	if err := j.Submit("job-000002", "t", Request{Experiment: "fig16"}, now); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	_, replayed, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed) != 2 {
		t.Fatalf("replayed %d jobs, want 2", len(replayed))
	}
	r := replayed[0]
	if r.State != StateFailed || r.Error != "boom" || r.Kind != "experiment" ||
		r.Experiment != "fig16" || r.Done != 200 || r.Sim != 200 ||
		!r.Created.Equal(now) || !r.Finished.Equal(fin) {
		t.Fatalf("archived job replayed as %+v", r)
	}
	if replayed[1].ID != "job-000002" || replayed[1].State != StateQueued {
		t.Fatalf("post-compaction submit replayed as %+v", replayed[1])
	}
}

// TestJournalNeedsCompaction checks the size trigger.
func TestJournalNeedsCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	j.CompactBytes = 256
	if j.NeedsCompaction() {
		t.Fatal("empty journal wants compaction")
	}
	for i := 0; i < 20; i++ {
		if err := j.Cells("job-000001", i, 20, 0, i); err != nil {
			t.Fatal(err)
		}
	}
	if !j.NeedsCompaction() {
		t.Fatalf("journal at %d bytes (threshold 256) not flagged", j.Size())
	}
}
