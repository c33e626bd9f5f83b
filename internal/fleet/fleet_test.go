package fleet

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"tetrium/internal/journal"
	"tetrium/internal/obs"
	"tetrium/internal/workload"
)

// twoTenantTrace is a small deterministic event stream: two tenants,
// three jobs, speculation, a crash requeue, LP decisions, and WAN flows.
func twoTenantTrace() []obs.Event {
	return []obs.Event{
		obs.JobArrival{T: 1, Job: 0, Name: "q1", Tenant: "acme", Stages: 2, Tasks: 8},
		obs.JobArrival{T: 2, Job: 1, Name: "q2", Tenant: "beta", Stages: 1, Tasks: 4},
		obs.JobArrival{T: 3, Job: 2, Name: "q3", Stages: 1, Tasks: 4}, // default tenant
		obs.Placement{T: 3.5, Job: 0, Stage: 0, Est: 10},
		obs.StageLaunch{T: 4, Job: 0, Stage: 0, Tasks: 8, Slots: 4, SlotsBySite: []int{2, 2}, Est: 10, WANBytes: 100},
		obs.Placement{T: 4.5, Job: 1, Stage: 0, Est: 8, Cached: true},
		obs.StageLaunch{T: 5, Job: 1, Stage: 0, Tasks: 4, Slots: 2, SlotsBySite: []int{0, 2}, Est: 8},
		obs.StageSpeculate{T: 6, Job: 0, Stage: 0, Site: 1, Tasks: 2},
		obs.StageRequeue{T: 7, Job: 1, Stage: 0, Site: 1, Tasks: 4, SlotSeconds: 4.25},
		obs.StageDone{T: 14, Job: 0, Stage: 0, Rescued: true, SlotSeconds: 40.5},
		obs.StageDone{T: 15, Job: 1, Stage: 0, SlotSeconds: 16.25},
		obs.FlowStart{T: 16, Flow: 1, Src: 0, Dst: 1, Bytes: 77},
		obs.JobDone{T: 20, Job: 1, Response: 18, WANBytes: 200},
		obs.Placement{T: 21, Job: 0, Stage: 1, Est: 5, Warm: true},
		obs.StageDone{T: 30, Job: 0, Stage: 1, SlotSeconds: 9.5},
		obs.JobDone{T: 31, Job: 0, Response: 30, WANBytes: 300.125},
	}
}

func emitAll(s *Store, evs []obs.Event) {
	for _, ev := range evs {
		s.Emit(ev)
	}
}

func TestStoreAggregates(t *testing.T) {
	s := New(Config{Window: 10})
	defer s.Close()
	emitAll(s, twoTenantTrace())

	tot := s.Totals()
	if tot.Jobs != 2 || tot.Admitted != 3 {
		t.Errorf("totals: jobs=%d admitted=%d, want 2/3", tot.Jobs, tot.Admitted)
	}
	if want := 40.5 + 16.25 + 9.5; tot.SlotSeconds != want {
		t.Errorf("slot-seconds %v, want %v", tot.SlotSeconds, want)
	}
	if want := 200 + 300.125; tot.WANBytes != want {
		t.Errorf("wan bytes %v, want %v", tot.WANBytes, want)
	}

	hogs := s.ResourceHogs(10)
	if len(hogs.Tenants) != 3 {
		t.Fatalf("tenants: %d, want 3 (acme, beta, default)", len(hogs.Tenants))
	}
	// acme has 50 slot-seconds, beta 16.25, default 0 → sorted desc.
	if hogs.Tenants[0].Tenant != "acme" || hogs.Tenants[1].Tenant != "beta" {
		t.Errorf("tenant order: %s, %s", hogs.Tenants[0].Tenant, hogs.Tenants[1].Tenant)
	}
	if hogs.Tenants[0].SlotSeconds != 50 || hogs.Tenants[0].WANBytes != 300.125 {
		t.Errorf("acme usage: %+v", hogs.Tenants[0])
	}
	if got := hogs.TopJobsBySlotSeconds[0].ID; got != 0 {
		t.Errorf("top job by slot-seconds: %d, want 0", got)
	}

	eff := s.Efficiency()
	var acme *TenantEfficiency
	for i := range eff.Tenants {
		if eff.Tenants[i].Tenant == "acme" {
			acme = &eff.Tenants[i]
		}
	}
	if acme == nil || acme.SpeculatedStages != 1 || acme.RescuedStages != 1 || acme.RescueRate != 1 {
		t.Errorf("acme efficiency: %+v", acme)
	}
	for _, te := range eff.Tenants {
		if te.Tenant == "beta" {
			if te.Requeues != 1 || te.WasteSlotSeconds != 4.25 {
				t.Errorf("beta waste: %+v", te)
			}
		}
	}
	if eff.LPSolves != 2 || eff.LPCacheHits != 1 || eff.LPWarmSolves != 1 || eff.WarmStartRate != 0.5 {
		t.Errorf("lp counters: solves=%d hits=%d warm=%d (rate %v)", eff.LPSolves, eff.LPCacheHits, eff.LPWarmSolves, eff.WarmStartRate)
	}

	// Estimate accuracy: job 0 stage 0 est 10 actual 14−3.5=10.5 →
	// rel err 0.05; job 1 stage 0 est 8 actual 15−4.5=10.5 → 0.3125;
	// job 0 stage 1 est 5 actual 30−21=9 → 0.8.
	acc := s.EstimateAccuracy()
	if acc.SamplesSeen != 3 || acc.Overall.Count != 3 {
		t.Fatalf("accuracy samples: seen=%d count=%d, want 3/3", acc.SamplesSeen, acc.Overall.Count)
	}
	if math.Abs(acc.Overall.P50-0.3125) > 1e-12 {
		t.Errorf("overall p50 %v, want 0.3125", acc.Overall.P50)
	}

	tr := s.UsageTrends(0)
	if len(tr.Windows) == 0 {
		t.Fatal("no usage windows")
	}
	// StageLaunch at T=4 and 5 land in window [0,10): committed
	// slot-seconds 4×10 + 2×8 = 56, with site 1 carrying 2×10+2×8=36.
	w0 := tr.Windows[0]
	if w0.Start != 0 || len(w0.SlotSecondsBySite) != 2 || w0.SlotSecondsBySite[1] != 36 {
		t.Errorf("window 0: %+v", w0)
	}
	if len(w0.Tenants) != 2 {
		t.Errorf("window 0 tenants: %+v", w0.Tenants)
	}
}

// TestOfflineJSONLParity is the acceptance-criteria core: exporting the
// live stream and re-ingesting it offline reproduces identical totals.
func TestOfflineJSONLParity(t *testing.T) {
	live := New(Config{Window: 10})
	defer live.Close()
	evs := twoTenantTrace()
	emitAll(live, evs)

	var buf bytes.Buffer
	if err := obs.WriteJSONL(&buf, evs); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	offline := New(Config{Window: 10})
	defer offline.Close()
	n, err := offline.IngestJSONL(&buf)
	if err != nil {
		t.Fatalf("IngestJSONL: %v", err)
	}
	if n != len(evs) {
		t.Fatalf("ingested %d events, want %d", n, len(evs))
	}
	if lt, ot := live.Totals(), offline.Totals(); lt != ot {
		t.Errorf("totals diverge:\nlive    %+v\noffline %+v", lt, ot)
	}
	if !reflect.DeepEqual(live.Summary(), offline.Summary()) {
		t.Error("full summaries diverge between live and offline ingestion")
	}
}

func TestJournalFoldDedupes(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	emitAll(s, twoTenantTrace())
	before := s.Totals()

	st := &journal.State{
		Done: []journal.DoneJob{
			// Job 0 already fully counted from events — must not double.
			{ID: 0, Name: "q1", Tenant: "acme", Stages: 2, WANBytes: 300.125},
			// Job 7 was lost from the event ring — journal fills it in.
			{ID: 7, Name: "lost", Tenant: "gamma", Stages: 1, WANBytes: 55},
		},
		Live: []journal.LiveJob{
			{ID: 1, Tenant: "beta"}, // already present
			{ID: 8, Tenant: "acme", Spec: &workload.Job{Name: "pending"}},
		},
	}
	s.IngestJournal(st)

	tot := s.Totals()
	if tot.Jobs != before.Jobs+1 {
		t.Errorf("done jobs %d, want %d (journal adds only the lost job)", tot.Jobs, before.Jobs+1)
	}
	if tot.Admitted != before.Admitted+2 {
		t.Errorf("admitted %d, want %d", tot.Admitted, before.Admitted+2)
	}
	if want := before.WANBytes + 55; tot.WANBytes != want {
		t.Errorf("wan %v, want %v (job 0 must not double-count)", tot.WANBytes, want)
	}
	// Idempotent: folding the same state again changes nothing.
	s.IngestJournal(st)
	if got := s.Totals(); got != tot {
		t.Errorf("second fold changed totals: %+v → %+v", tot, got)
	}
}

// TestJournalCompletesLiveRow: arrival seen in events, completion lost —
// the journal's done record finishes the existing row under the event
// stream's tenant.
func TestJournalCompletesLiveRow(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	s.Emit(obs.JobArrival{T: 1, Job: 3, Name: "q", Tenant: "acme"})
	s.IngestJournal(&journal.State{Done: []journal.DoneJob{
		{ID: 3, Name: "q", Tenant: "acme", Stages: 1, WANBytes: 9},
	}})
	tot := s.Totals()
	if tot.Jobs != 1 || tot.WANBytes != 9 {
		t.Errorf("totals %+v, want 1 done / 9 wan", tot)
	}
	hogs := s.ResourceHogs(1)
	if len(hogs.Tenants) != 1 || hogs.Tenants[0].Tenant != "acme" || hogs.Tenants[0].Done != 1 {
		t.Errorf("tenant rows: %+v", hogs.Tenants)
	}
}

func TestEvictionKeepsAggregatesAndLiveRows(t *testing.T) {
	s := New(Config{MaxJobs: 8})
	defer s.Close()
	// Job 0 stays live forever; jobs 1..24 complete with 1 slot-second,
	// 2 WAN bytes each.
	s.Emit(obs.JobArrival{T: 0, Job: 0, Tenant: "live", Name: "sticky"})
	for i := 1; i <= 24; i++ {
		s.Emit(obs.JobArrival{T: float64(i), Job: i, Tenant: "churn"})
		s.Emit(obs.StageDone{T: float64(i), Job: i, Stage: 0, SlotSeconds: 1})
		s.Emit(obs.JobDone{T: float64(i), Job: i, WANBytes: 2})
	}
	tot := s.Totals()
	if tot.Jobs != 24 || tot.SlotSeconds != 24 || tot.WANBytes != 48 || tot.Admitted != 25 {
		t.Errorf("totals after churn: %+v", tot)
	}
	hogs := s.ResourceHogs(100)
	if n := len(hogs.TopJobsBySlotSeconds); n > 8 {
		t.Errorf("retained %d job rows, want ≤ MaxJobs=8", n)
	}
	// The live row must survive every eviction pass.
	found := false
	for _, j := range hogs.TopJobsBySlotSeconds {
		if j.ID == 0 {
			if j.Done {
				t.Error("live job marked done")
			}
			found = true
		}
	}
	if !found {
		t.Error("live job evicted")
	}
	// A late completion for an evicted job must not underflow anything:
	// it re-appears as a default-tenant row counted once.
	s.Emit(obs.JobDone{T: 99, Job: 1, WANBytes: 2})
}

func TestWindowOrderingAndRetention(t *testing.T) {
	s := New(Config{Window: 10, MaxWindows: 3})
	defer s.Close()
	// Out-of-order arrival: buckets 5, 2, 7, 3 — report must come back
	// sorted ascending, trimmed to the newest 3.
	for _, ts := range []float64{55, 25, 75, 35} {
		s.Emit(obs.FlowStart{T: ts, Src: 0, Bytes: 1})
	}
	tr := s.UsageTrends(0)
	if len(tr.Windows) != 3 {
		t.Fatalf("retained %d windows, want 3", len(tr.Windows))
	}
	var starts []float64
	for _, w := range tr.Windows {
		starts = append(starts, w.Start)
	}
	if !reflect.DeepEqual(starts, []float64{30, 50, 70}) {
		t.Errorf("window starts %v, want [30 50 70]", starts)
	}
}

func TestDecodeJSONLErrors(t *testing.T) {
	// Unknown kinds skip; malformed mid-stream lines error; a torn final
	// line (crash during export) is tolerated.
	good := `{"k":"job_arrival","e":{"t":1,"job":0,"tenant":"a"}}`
	t.Run("unknown kind skipped", func(t *testing.T) {
		n, err := DecodeJSONL(strings.NewReader(good+"\n"+`{"k":"mystery","e":{}}`+"\n"), func(obs.Event) {})
		if err != nil || n != 1 {
			t.Errorf("n=%d err=%v, want 1/nil", n, err)
		}
	})
	t.Run("malformed mid-stream errors", func(t *testing.T) {
		_, err := DecodeJSONL(strings.NewReader("{garbage\n"+good+"\n"), func(obs.Event) {})
		if err == nil {
			t.Error("no error for malformed line followed by valid line")
		}
	})
	t.Run("torn final line tolerated", func(t *testing.T) {
		n, err := DecodeJSONL(strings.NewReader(good+"\n"+`{"k":"job_done","e":{"t":2`), func(obs.Event) {})
		if err != nil || n != 1 {
			t.Errorf("n=%d err=%v, want 1/nil", n, err)
		}
	})
}

func TestSnapshotRoundtrip(t *testing.T) {
	path := t.TempDir() + "/fleet.json"
	s := New(Config{})
	emitAll(s, twoTenantTrace())
	if err := s.WriteSnapshot(path); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	s.Close()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read snapshot: %v", err)
	}
	var snap Snapshot
	if err := json.Unmarshal(b, &snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	if snap.Totals != s.Totals() {
		t.Errorf("snapshot totals %+v != store totals %+v", snap.Totals, s.Totals())
	}
}
