package sim

import (
	"testing"

	"tetrium/internal/fault"
	"tetrium/internal/obs"
	"tetrium/internal/units"
	"tetrium/internal/workload"
)

func faultInjector(t *testing.T, spec string, seed int64) *fault.Injector {
	t.Helper()
	in, err := fault.Parse(spec, seed)
	if err != nil {
		t.Fatalf("fault.Parse(%q): %v", spec, err)
	}
	return in
}

// faultWorkload: enough tasks to span waves so crashes and stragglers
// actually bite.
func faultWorkload() []*workload.Job {
	return []*workload.Job{
		mapReduceJob(0, []int{4, 4, 4}, 200*units.MB, 2, 0.5, 6, 2),
		mapReduceJob(1, []int{6, 2, 2}, 100*units.MB, 3, 0.3, 4, 1),
	}
}

func TestFaultedRunCompletesAndIsChecked(t *testing.T) {
	c := uniformCluster(3, 3, 200*units.MBps)
	cfg := baseConfig(c, faultWorkload())
	cfg.Check = true
	cfg.Speculation = true
	cfg.Faults = faultInjector(t, "crash@3s:site=1,dur=10s;degrade@1s:site=0,frac=0.7,dur=8s;straggle:p=0.3,x=5", 7)
	rec := obs.NewRecorder()
	cfg.Observer = rec

	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("faulted run: %v", err)
	}
	for _, j := range res.Jobs {
		if j.Completion < 0 {
			t.Errorf("job %d never completed", j.ID)
		}
	}
	if got := rec.Registry().Counter("faults").Value(); got < 4 {
		t.Errorf("faults counter = %v, want >= 4 (crash, rejoin, degrade, restore)", got)
	}
	var kinds []string
	for _, ev := range rec.Events() {
		if f, ok := ev.(obs.Fault); ok {
			kinds = append(kinds, f.Fault)
		}
	}
	want := map[string]bool{"site_crash": false, "site_rejoin": false, "link_degrade": false, "link_restore": false}
	for _, k := range kinds {
		if _, ok := want[k]; ok {
			want[k] = true
		}
	}
	for k, seen := range want {
		if !seen {
			t.Errorf("fault kind %q never emitted (saw %v)", k, kinds)
		}
	}
}

func TestFaultedRunDeterministic(t *testing.T) {
	run := func() *Result {
		c := uniformCluster(3, 3, 200*units.MBps)
		cfg := baseConfig(c, faultWorkload())
		cfg.Speculation = true
		cfg.Faults = faultInjector(t, "crash@2s:site=2,dur=5s;straggle:p=0.25,x=6", 99)
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return res
	}
	a, b := run(), run()
	if a.Makespan != b.Makespan || a.WANBytes != b.WANBytes {
		t.Errorf("same-seed faulted runs diverge: makespan %v vs %v, wan %v vs %v",
			a.Makespan, b.Makespan, a.WANBytes, b.WANBytes)
	}
	for i := range a.Jobs {
		if a.Jobs[i].Response != b.Jobs[i].Response {
			t.Errorf("job %d response %v vs %v", i, a.Jobs[i].Response, b.Jobs[i].Response)
		}
	}
}

func TestStraggleSlowsAndSpeculationRescues(t *testing.T) {
	// Every task straggles 10×; with §8 speculation on, copies at
	// estimate speed must rescue some of them.
	c := uniformCluster(2, 6, units.GBps)
	job := mapOnlyJob(0, []int{4, 4}, 10*units.MB, 2)
	base := baseConfig(c, []*workload.Job{job})

	plain, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}

	slow := baseConfig(c, []*workload.Job{job})
	slow.Faults = faultInjector(t, "straggle:p=1,x=10", 1)
	slowRes, err := Run(slow)
	if err != nil {
		t.Fatal(err)
	}
	if slowRes.Jobs[0].Response <= plain.Jobs[0].Response*2 {
		t.Errorf("universal 10× straggle barely slowed the job: %v vs %v",
			slowRes.Jobs[0].Response, plain.Jobs[0].Response)
	}

	spec := baseConfig(c, []*workload.Job{job})
	spec.Faults = faultInjector(t, "straggle:p=1,x=10", 1)
	spec.Speculation = true
	specRes, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if specRes.SpeculativeRescues == 0 {
		t.Errorf("no speculative rescues despite universal stragglers (copies=%d)", specRes.SpeculativeCopies)
	}
	if specRes.Jobs[0].Response >= slowRes.Jobs[0].Response {
		t.Errorf("speculation did not improve straggled response: %v vs %v",
			specRes.Jobs[0].Response, slowRes.Jobs[0].Response)
	}
}

func TestPermanentCrashShrinksCluster(t *testing.T) {
	// Site 1 crashes permanently before any of its work can finish; the
	// run must still complete on the surviving site (placement routes
	// around zero-slot sites).
	c := uniformCluster(2, 4, units.GBps)
	job := mapOnlyJob(0, []int{8, 0}, 1*units.MB, 1)
	cfg := baseConfig(c, []*workload.Job{job})
	cfg.Check = true
	cfg.Faults = faultInjector(t, "crash@0.5s:site=1", 1)
	if _, err := Run(cfg); err != nil {
		t.Fatalf("run with permanent crash: %v", err)
	}
}

// TestCrashedDataSiteStaysReadable: a crash loses the site's compute,
// not its links (fault.Fault.Apply), so the input of a permanently
// crashed data site still reaches the surviving site at link speed —
// 16 GB over 100 MB/s, not over a 1 B/s residue.
func TestCrashedDataSiteStaysReadable(t *testing.T) {
	c := uniformCluster(2, 4, 100*units.MBps)
	job := mapOnlyJob(0, []int{0, 16}, units.GB, 1)
	cfg := baseConfig(c, []*workload.Job{job})
	cfg.Check = true
	cfg.Faults = faultInjector(t, "crash@1s:site=1", 1)
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("run with a crashed data site: %v", err)
	}
	if r := res.Jobs[0].Response; r > 1000 {
		t.Errorf("response %.4g s with the data site crashed, want link speed (≈ 160 s)", r)
	}
}
