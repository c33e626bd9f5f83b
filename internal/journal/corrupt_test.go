package journal

import (
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeGolden builds a journal with a known record sequence and returns
// its path. Layout (0-indexed lines): 0 gen, then for each of n jobs an
// admit/place/done triple.
func writeGolden(t *testing.T, n int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "eng.journal")
	j, _, err := Open(path, 1<<20) // snapEvery huge: no compaction
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for id := 0; id < n; id++ {
		if err := j.Admit(id, int64(100+id), "acme", sampleJob("j")); err != nil {
			t.Fatalf("Admit %d: %v", id, err)
		}
		if err := j.Place(id, 0, int64(110+id)); err != nil {
			t.Fatalf("Place %d: %v", id, err)
		}
		if err := j.Done(id, int64(120+id), "acme", "j", 1, 7); err != nil {
			t.Fatalf("Done %d: %v", id, err)
		}
	}
	// No Close (Close would snapshot+truncate); simulate a hard kill.
	j.f.Close()
	return path
}

// TestCorruptMidFileQuarantined flips a byte in an early, middle, and
// late record of a 5-job journal; in each case replay must quarantine
// exactly that record, keep every other record's effect, and leave the
// damage in <path>.corrupt.
func TestCorruptMidFileQuarantined(t *testing.T) {
	// Line layout: 0=gen, then triples. Corrupting a done record loses
	// the completion (job reverts to live); corrupting a place record
	// loses only the Placed marker; corrupting an admit of a job whose
	// done survives keeps the job done (done records reconstruct).
	cases := []struct {
		name string
		rec  int // line to flip
		// expectations after replay
		done, live, quarantined int
	}{
		{"early-admit", 1, 5, 0, 1},  // job 0's admit; its done record survives
		{"middle-place", 8, 5, 0, 1}, // job 2's place; placement is forensic only
		{"late-done", 15, 4, 1, 1},   // job 4's done; job reverts to live (re-run)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := writeGolden(t, 5)
			if err := CorruptRecord(path, tc.rec); err != nil {
				t.Fatalf("CorruptRecord: %v", err)
			}
			j, st, err := Open(path, 1<<20)
			if err != nil {
				t.Fatalf("reopen over corruption: %v", err)
			}
			defer j.Close()
			if len(st.Done) != tc.done || len(st.Live) != tc.live {
				t.Errorf("recovered %d done / %d live, want %d/%d", len(st.Done), len(st.Live), tc.done, tc.live)
			}
			if st.Quarantined != tc.quarantined {
				t.Errorf("Quarantined = %d, want %d", st.Quarantined, tc.quarantined)
			}
			if st.NextID != 5 {
				t.Errorf("NextID = %d, want 5", st.NextID)
			}
			b, err := os.ReadFile(path + ".corrupt")
			if err != nil {
				t.Fatalf("no quarantine file: %v", err)
			}
			if !strings.Contains(string(b), "crc mismatch") {
				t.Errorf("quarantine missing reason header: %q", b)
			}
			// The damaged raw line must be preserved for forensics.
			if lines := strings.Split(strings.TrimSpace(string(b)), "\n"); len(lines) != 2 || !strings.HasPrefix(lines[1], "~") {
				t.Errorf("quarantine contents = %q, want reason + raw line", b)
			}
		})
	}
}

// TestCorruptDoneStillExactlyOnce corrupts job 4's done record and
// checks the re-run path: the job replays as live (the engine will run
// it again), and a second completion journals cleanly — exactly-once
// from the client's view since the first done was never durable.
func TestCorruptDoneStillExactlyOnce(t *testing.T) {
	path := writeGolden(t, 5)
	if err := CorruptRecord(path, 15); err != nil {
		t.Fatalf("CorruptRecord: %v", err)
	}
	j, st, err := Open(path, 1<<20)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if len(st.Live) != 1 || st.Live[0].ID != 4 {
		t.Fatalf("Live = %+v, want job 4", st.Live)
	}
	if err := j.Done(4, 999, "acme", "j", 1, 7); err != nil {
		t.Fatalf("re-Done: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	st2, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if len(st2.Done) != 5 || len(st2.Live) != 0 {
		t.Errorf("final state %d done / %d live, want 5/0", len(st2.Done), len(st2.Live))
	}
}

// TestGenerationMonotonic: every Open mints a strictly larger
// generation, surviving snapshots and corruption in between.
func TestGenerationMonotonic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "eng.journal")
	var last int
	for i := 0; i < 3; i++ {
		j, st, err := Open(path, 2) // tiny snapEvery: exercise snapshot carry
		if err != nil {
			t.Fatalf("Open %d: %v", i, err)
		}
		if st.Generation != last+1 {
			t.Fatalf("open %d: Generation = %d, want %d", i, st.Generation, last+1)
		}
		if j.Generation() != st.Generation {
			t.Fatalf("Generation() = %d, state %d", j.Generation(), st.Generation)
		}
		last = st.Generation
		j.Admit(i, int64(i), "", sampleJob("g"))
		j.Done(i, int64(i)+1, "", "g", 1, 0)
		if i == 1 {
			// Corruption must not reset the epoch counter.
			j.f.Close()
			continue
		}
		j.Close()
	}
}

// TestUnframedLinesQuarantined: a line without a CRC frame — bare JSON,
// however well-formed — is never applied. It is quarantined like any
// other unrecognized line and replay continues with the framed records
// around it.
func TestUnframedLinesQuarantined(t *testing.T) {
	path := filepath.Join(t.TempDir(), "eng.journal")
	j, _, err := Open(path, 1<<20)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := j.Admit(0, 100, "acme", sampleJob("a")); err != nil {
		t.Fatalf("Admit: %v", err)
	}
	bare := `{"k":"admit","id":7,"t":105,"spec":{"name":"x","stages":[{"kind":0,"tasks":[{"Src":0,"Input":1000000,"Compute":1}]}]}}
{"k":"done","id":0,"t":106,"tenant":"acme","name":"a","stages":1,"wan_bytes":42}
`
	if _, err := j.f.Write([]byte(bare)); err != nil {
		t.Fatal(err)
	}
	if err := j.Admit(1, 110, "", sampleJob("b")); err != nil {
		t.Fatalf("Admit: %v", err)
	}
	if err := j.Abandon(); err != nil { // no final snapshot: the tail is replayed
		t.Fatalf("Abandon: %v", err)
	}

	j, st, err := Open(path, 1<<20)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer j.Close()
	if st.Quarantined != 2 {
		t.Errorf("Quarantined = %d, want 2", st.Quarantined)
	}
	if len(st.Done) != 0 || len(st.Live) != 2 || st.Live[0].ID != 0 || st.Live[1].ID != 1 {
		t.Errorf("replay applied an unframed line: %+v", st)
	}
	side, err := os.ReadFile(path + ".corrupt")
	if err != nil {
		t.Fatalf("sidecar: %v", err)
	}
	if strings.Count(string(side), "# unrecognized frame\n") != 2 || !strings.Contains(string(side), `"id":7`) {
		t.Errorf("sidecar does not hold both lines with their reason:\n%s", side)
	}
}

// goFieldSpec is a job as journals wrote it before internal/workload
// owned the job encoding: encoding/json's reflection of the Go fields,
// the stage kind a number.
const goFieldSpec = `{"ID":0,"Name":"old","Arrival":0,"Stages":[{"Kind":0,"Deps":null,"Tasks":[{"Src":0,"Replicas":null,"Input":1000000,"Compute":1}],"OutputRatio":0.5,"EstCompute":1}]}`

// TestGoFieldEncodingRefused: the job encoding changed, and that is a
// stated break. An admit record in the old encoding passes its CRC but
// is quarantined and counted — never replayed as a job whose
// output_ratio and est_compute, keys the old encoding spelled
// differently, read as zero. A snapshot holding live jobs in the old
// encoding makes Open fail, naming the snapshot.
func TestGoFieldEncodingRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "eng.journal")
	j, _, err := Open(path, 1<<20)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := j.Admit(0, 100, "acme", sampleJob("a")); err != nil {
		t.Fatalf("Admit: %v", err)
	}
	payload := []byte(`{"k":"admit","id":1,"t":105,"spec":` + goFieldSpec + `,"name":"old"}`)
	line := append(appendCRCHex([]byte{'~'}, crc32.ChecksumIEEE(payload)), ' ')
	if _, err := j.f.Write(append(append(line, payload...), '\n')); err != nil {
		t.Fatal(err)
	}
	if err := j.Admit(2, 110, "", sampleJob("b")); err != nil {
		t.Fatalf("Admit: %v", err)
	}
	if err := j.Abandon(); err != nil {
		t.Fatalf("Abandon: %v", err)
	}
	j, st, err := Open(path, 1<<20)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer j.Close()
	if st.Quarantined != 1 || len(st.Live) != 2 || st.Live[0].ID != 0 || st.Live[1].ID != 2 {
		t.Errorf("replay of an old-encoding admit: quarantined %d, live %+v; want 1 and jobs 0, 2", st.Quarantined, st.Live)
	}
	if side, _ := os.ReadFile(path + ".corrupt"); !strings.Contains(string(side), "# unparseable json\n") {
		t.Errorf("sidecar does not hold the old-encoding record:\n%s", side)
	}

	snapPath := filepath.Join(t.TempDir(), "old.journal")
	snap := `{"next_id":2,"live":[{"ID":1,"Tenant":"default","IdemKey":"","SubmittedMs":105,"Placed":false,"Spec":` + goFieldSpec + `}],"done":[]}`
	if err := os.WriteFile(snapPath+".snap", []byte(snap), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(snapPath, 1024); err == nil || !strings.Contains(err.Error(), "snapshot") {
		t.Errorf("Open on an old-encoding snapshot: %v, want an error naming the snapshot", err)
	}
}

// TestIdemKeyRoundTrip: idempotency keys survive admit→done→replay,
// including through a snapshot.
func TestIdemKeyRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "eng.journal")
	j, _, err := Open(path, 3)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := j.AdmitIdem(0, 100, "acme", "key-a", sampleJob("a")); err != nil {
		t.Fatalf("AdmitIdem: %v", err)
	}
	if err := j.AdmitIdem(1, 110, "acme", "key-b", sampleJob("b")); err != nil {
		t.Fatalf("AdmitIdem: %v", err)
	}
	if err := j.Done(0, 120, "acme", "a", 1, 0); err != nil {
		t.Fatalf("Done: %v", err)
	}
	j.f.Close() // hard kill
	_, st, err := Open(path, 1024)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if len(st.Done) != 1 || st.Done[0].IdemKey != "key-a" {
		t.Errorf("done idem = %+v, want key-a", st.Done)
	}
	if len(st.Live) != 1 || st.Live[0].IdemKey != "key-b" {
		t.Errorf("live idem = %+v, want key-b", st.Live)
	}
}
