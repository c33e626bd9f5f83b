package journal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"tetrium/internal/workload"
)

func sampleJob(name string) *workload.Job {
	return &workload.Job{Name: name, Stages: []*workload.Stage{{
		Kind: workload.MapStage, EstCompute: 1,
		Tasks: []workload.TaskSpec{{Src: 0, Input: 1e6, Compute: 1}},
	}}}
}

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "eng.journal")
	j, st, err := Open(path, 1024)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if st.NextID != 0 || len(st.Live) != 0 || len(st.Done) != 0 {
		t.Fatalf("fresh state = %+v, want empty", st)
	}
	if err := j.Admit(0, 100, "acme", sampleJob("a")); err != nil {
		t.Fatalf("Admit: %v", err)
	}
	if err := j.Admit(1, 110, "", sampleJob("b")); err != nil {
		t.Fatalf("Admit: %v", err)
	}
	if err := j.Place(0, 0, 120); err != nil {
		t.Fatalf("Place: %v", err)
	}
	if err := j.Done(0, 130, "acme", "a", 1, 42); err != nil {
		t.Fatalf("Done: %v", err)
	}
	// No Close: simulate a hard kill by just reopening the files.
	j2, st2, err := Open(path, 1024)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer j2.Close()
	if st2.NextID != 2 {
		t.Errorf("NextID = %d, want 2", st2.NextID)
	}
	if len(st2.Done) != 1 || st2.Done[0].ID != 0 || st2.Done[0].WANBytes != 42 || st2.Done[0].SubmittedMs != 100 || st2.Done[0].FinishedMs != 130 {
		t.Errorf("Done = %+v", st2.Done)
	}
	if len(st2.Live) != 1 || st2.Live[0].ID != 1 || st2.Live[0].Placed {
		t.Errorf("Live = %+v, want job 1 unplaced", st2.Live)
	}
	if st2.Live[0].Spec == nil || st2.Live[0].Spec.Name != "b" {
		t.Errorf("live spec not recovered: %+v", st2.Live[0].Spec)
	}
	if st2.Done[0].Tenant != "acme" {
		t.Errorf("done tenant = %q, want acme", st2.Done[0].Tenant)
	}
	if st2.Live[0].Tenant != "default" {
		t.Errorf("empty admit tenant = %q, want default", st2.Live[0].Tenant)
	}
}

// TestPreTenantFixtureReplay replays records without the Tenant field
// (checked-in fixture in the current job encoding, CRC-framed since
// replay applies nothing else): every record must recover with tenant
// "default" and otherwise identical state.
func TestPreTenantFixtureReplay(t *testing.T) {
	st, err := ReadFile(filepath.Join("testdata", "pre_tenant.journal"))
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if st.NextID != 3 {
		t.Errorf("NextID = %d, want 3", st.NextID)
	}
	if len(st.Done) != 1 || st.Done[0].ID != 0 || st.Done[0].Tenant != "default" ||
		st.Done[0].WANBytes != 42 || st.Done[0].SubmittedMs != 100 || st.Done[0].FinishedMs != 130 {
		t.Errorf("Done = %+v, want job 0 tenant default wan 42", st.Done)
	}
	if len(st.Live) != 2 {
		t.Fatalf("Live = %+v, want 2 jobs", st.Live)
	}
	for _, lj := range st.Live {
		if lj.Tenant != "default" {
			t.Errorf("live job %d tenant = %q, want default", lj.ID, lj.Tenant)
		}
	}
	if !st.Live[0].Placed || st.Live[1].Placed {
		t.Errorf("Placed flags = %v/%v, want true/false", st.Live[0].Placed, st.Live[1].Placed)
	}
	if sp := st.Live[0].Spec; sp.Name != "q2" || sp.Stages[0].OutputRatio != 0.5 || sp.Stages[0].EstCompute != 2 {
		t.Errorf("live job 1 spec = %+v, want q2 with output_ratio 0.5 and est_compute 2", sp)
	}
}

// TestReadFileDoesNotMutate checks the offline reader leaves the
// journal byte-identical (the engine may still own the live file).
func TestReadFileDoesNotMutate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "eng.journal")
	j, _, err := Open(path, 1024)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := j.Admit(0, 1, "acme", sampleJob("a")); err != nil {
		t.Fatalf("Admit: %v", err)
	}
	before, _ := os.ReadFile(path)
	st, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if len(st.Live) != 1 || st.Live[0].Tenant != "acme" {
		t.Errorf("Live = %+v, want one acme job", st.Live)
	}
	after, _ := os.ReadFile(path)
	if string(before) != string(after) {
		t.Error("ReadFile mutated the journal")
	}
	if _, err := os.Stat(path + ".snap"); !os.IsNotExist(err) {
		t.Error("ReadFile wrote a snapshot")
	}
}

func TestSnapshotTruncates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "eng.journal")
	j, _, err := Open(path, 4) // snapshot every 4 records
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for id := 0; id < 10; id++ {
		if err := j.Admit(id, int64(id), "t1", sampleJob("x")); err != nil {
			t.Fatalf("Admit %d: %v", id, err)
		}
		if err := j.Done(id, int64(id)+1, "t1", "x", 1, 0); err != nil {
			t.Fatalf("Done %d: %v", id, err)
		}
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatalf("stat: %v", err)
	}
	if _, err := os.Stat(path + ".snap"); err != nil {
		t.Fatalf("no snapshot written: %v", err)
	}
	// 20 records with snapEvery=4: the journal holds at most 3 records
	// past the last snapshot, so it must be far smaller than 20 lines.
	if fi.Size() > 3*256 {
		t.Errorf("journal not truncated by snapshots: %d bytes", fi.Size())
	}
	_, st, err := Open(path, 4)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if len(st.Done) != 10 || len(st.Live) != 0 || st.NextID != 10 {
		t.Errorf("recovered %d done / %d live / next %d, want 10/0/10", len(st.Done), len(st.Live), st.NextID)
	}
}

func TestTornFinalLineDropped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "eng.journal")
	j, _, err := Open(path, 1024)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := j.Admit(0, 1, "", sampleJob("a")); err != nil {
		t.Fatalf("Admit: %v", err)
	}
	if err := j.Admit(1, 2, "", sampleJob("b")); err != nil {
		t.Fatalf("Admit: %v", err)
	}
	// Simulate a write torn mid-record by the kill: cut the second
	// admit's framed line in half.
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	last := bytes.LastIndexByte(b[:len(b)-1], '\n') + 1
	if err := os.WriteFile(path, b[:last+(len(b)-last)/2], 0o644); err != nil {
		t.Fatalf("truncate: %v", err)
	}

	_, st, err := Open(path, 1024)
	if err != nil {
		t.Fatalf("reopen with torn tail: %v", err)
	}
	if len(st.Live) != 1 || st.Live[0].ID != 0 {
		t.Errorf("torn tail not dropped: live = %+v", st.Live)
	}
	if st.Quarantined != 1 {
		t.Errorf("Quarantined = %d, want 1 (the torn frame)", st.Quarantined)
	}
}

func TestIdempotentReplayAfterSnapshotCrash(t *testing.T) {
	// A crash between snapshot rename and journal truncate leaves the
	// snapshot AND the full journal; replay must not double-apply.
	path := filepath.Join(t.TempDir(), "eng.journal")
	j, _, err := Open(path, 1024)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := j.Admit(0, 1, "", sampleJob("a")); err != nil {
		t.Fatalf("Admit: %v", err)
	}
	if err := j.Done(0, 2, "", "a", 1, 7); err != nil {
		t.Fatalf("Done: %v", err)
	}
	// Force the snapshot but keep the journal contents (undo the truncate
	// by writing the pre-snapshot bytes back): the real crash image.
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if err := j.snapshot(); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if err := os.WriteFile(path, before, 0o644); err != nil {
		t.Fatalf("restore journal: %v", err)
	}

	_, st, err := Open(path, 1024)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	// The duplicates must be applied (and absorbed), not quarantined.
	if st.Quarantined != 0 {
		t.Errorf("Quarantined = %d, want 0", st.Quarantined)
	}
	if len(st.Done) != 1 || len(st.Live) != 0 {
		t.Errorf("replay not idempotent: %d done / %d live", len(st.Done), len(st.Live))
	}
	if st.NextID != 1 {
		t.Errorf("NextID = %d, want 1", st.NextID)
	}
	// The replayed gen record is the one the snapshot already holds.
	if st.Generation != 2 {
		t.Errorf("Generation = %d, want 2", st.Generation)
	}
}
