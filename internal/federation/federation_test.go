package federation

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"tetrium/internal/cluster"
	"tetrium/internal/engine"
	"tetrium/internal/place"
	"tetrium/internal/sched"
	"tetrium/internal/workload"
)

// testMember is the shard template used across the tests: the paper's
// placer and ordering with instant stage completion (TimeScale 0).
func testMember(maxPending int, timeScale float64) func(int) (engine.Config, error) {
	return func(int) (engine.Config, error) {
		return engine.Config{
			Placer:     place.Tetrium{},
			Policy:     sched.SRPT,
			Rho:        1,
			Eps:        1,
			MaxPending: maxPending,
			TimeScale:  timeScale,
		}, nil
	}
}

func mustFed(t *testing.T, cfg Config) *Federation {
	t.Helper()
	f, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(f.Close)
	return f
}

func drainFed(t *testing.T, f *Federation) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := f.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
}

// benchJob builds a tiny single-task map job with a distinct name so
// the hash shard map spreads the population.
func benchJob(i int, compute float64) *workload.Job {
	return &workload.Job{
		Name: fmt.Sprintf("job-%d", i),
		Stages: []*workload.Stage{{
			Kind:       workload.MapStage,
			EstCompute: compute,
			Tasks:      []workload.TaskSpec{{Src: i % 4, Input: 1e6, Compute: compute}},
		}},
	}
}

func TestSlotShareSums(t *testing.T) {
	for total := 0; total <= 23; total++ {
		for shards := 1; shards <= 5; shards++ {
			sum, min, max := 0, total, 0
			for i := 0; i < shards; i++ {
				sh := slotShare(total, shards, i)
				sum += sh
				if sh < min {
					min = sh
				}
				if sh > max {
					max = sh
				}
			}
			if sum != total {
				t.Errorf("slotShare(%d,%d,·) sums to %d", total, shards, sum)
			}
			if total >= shards && max-min > 1 {
				t.Errorf("slotShare(%d,%d,·) spread %d..%d, want within 1", total, shards, min, max)
			}
		}
	}
}

func TestSliceClusterConserves(t *testing.T) {
	fleet := cluster.EC2EightRegions()
	const shards = 3
	slotSums := make([]int, fleet.N())
	upSums := make([]float64, fleet.N())
	for i := 0; i < shards; i++ {
		sl := SliceCluster(fleet, shards, i)
		if sl.N() != fleet.N() {
			t.Fatalf("slice %d has %d sites, want %d", i, sl.N(), fleet.N())
		}
		for x, s := range sl.Sites {
			if s.Name != fleet.Sites[x].Name {
				t.Fatalf("slice %d site %d renamed %q", i, x, s.Name)
			}
			slotSums[x] += s.Slots
			upSums[x] += s.UpBW
		}
	}
	for x := range slotSums {
		if slotSums[x] != fleet.Sites[x].Slots {
			t.Errorf("site %d slots sum %d, want %d", x, slotSums[x], fleet.Sites[x].Slots)
		}
		if diff := upSums[x] - fleet.Sites[x].UpBW; diff > 1e-6 || diff < -1e-6 {
			t.Errorf("site %d up-bw sum %g, want %g", x, upSums[x], fleet.Sites[x].UpBW)
		}
	}
}

func TestIDRoundTrip(t *testing.T) {
	f := &Federation{n: 3}
	for shard := 0; shard < 3; shard++ {
		for local := 0; local < 50; local++ {
			g := f.GlobalID(shard, local)
			s, l := f.SplitID(g)
			if s != shard || l != local {
				t.Fatalf("SplitID(GlobalID(%d,%d)) = (%d,%d)", shard, local, s, l)
			}
		}
	}
}

func TestHashShardsSpread(t *testing.T) {
	counts := make([]int, 4)
	for i := 0; i < 400; i++ {
		s := route(benchJob(i, 1).Name, uint64(i), 4)
		if s < 0 || s >= 4 {
			t.Fatalf("route %d out of range", s)
		}
		counts[s]++
	}
	for s, c := range counts {
		if c == 0 {
			t.Errorf("shard %d never routed in 400 submissions: %v", s, counts)
		}
	}
}

// TestRouteGolden pins route's output, so a change to the hash cannot
// silently send the same submissions to different shards. The table
// predates route; it is not to be regenerated from it.
func TestRouteGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		seq  uint64
		want [3]int // n = 2, 3, 4
	}{
		{"", 1, [3]int{0, 1, 2}},
		{"", 2, [3]int{0, 2, 2}},
		{"", 255, [3]int{1, 1, 3}},
		{"", 4294967296, [3]int{1, 0, 3}},
		{"", 18446744073709551615, [3]int{0, 1, 2}},
		{"job-0", 1, [3]int{0, 1, 0}},
		{"job-0", 2, [3]int{0, 2, 0}},
		{"job-0", 255, [3]int{1, 0, 3}},
		{"job-0", 4294967296, [3]int{1, 2, 3}},
		{"job-0", 18446744073709551615, [3]int{1, 1, 3}},
		{"bigdata-17", 1, [3]int{0, 0, 2}},
		{"bigdata-17", 2, [3]int{1, 0, 3}},
		{"bigdata-17", 255, [3]int{1, 0, 1}},
		{"bigdata-17", 4294967296, [3]int{0, 1, 0}},
		{"bigdata-17", 18446744073709551615, [3]int{0, 1, 2}},
		{"jöb", 1, [3]int{0, 2, 0}},
		{"jöb", 2, [3]int{0, 1, 2}},
		{"jöb", 255, [3]int{0, 1, 0}},
		{"jöb", 4294967296, [3]int{1, 0, 3}},
		{"jöb", 18446744073709551615, [3]int{1, 1, 1}},
	} {
		for i, n := range []int{2, 3, 4} {
			if got := route(tc.name, tc.seq, n); got != tc.want[i] {
				t.Errorf("route(%q, %d, %d) = %d, want %d", tc.name, tc.seq, n, got, tc.want[i])
			}
		}
	}
}

func TestSubmitAggregatesAcrossShards(t *testing.T) {
	f := mustFed(t, Config{
		Shards:  2,
		Cluster: cluster.EC2EightRegions(),
		Member:  testMember(0, 0),
	})
	const n = 12
	ids := map[int]bool{}
	for i := 0; i < n; i++ {
		st, err := f.Submit(benchJob(i, 1))
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		if ids[st.ID] {
			t.Fatalf("duplicate federation ID %d", st.ID)
		}
		ids[st.ID] = true
	}
	shardsUsed := map[int]bool{}
	for id := range ids {
		shardsUsed[id%2] = true
	}
	if len(shardsUsed) != 2 {
		t.Errorf("all jobs landed on one shard")
	}
	drainFed(t, f)

	sts, err := f.Jobs()
	if err != nil {
		t.Fatalf("Jobs: %v", err)
	}
	if len(sts) != n {
		t.Fatalf("Jobs lists %d, want %d", len(sts), n)
	}
	for i := 1; i < len(sts); i++ {
		if sts[i].Submitted.Before(sts[i-1].Submitted) {
			t.Errorf("Jobs not ordered by submission time at %d", i)
		}
	}
	for id := range ids {
		st, err := f.Job(id)
		if err != nil {
			t.Fatalf("Job(%d): %v", id, err)
		}
		if st.ID != id {
			t.Errorf("Job(%d) returned ID %d", id, st.ID)
		}
		if st.Phase.String() != "done" {
			t.Errorf("job %d phase %s, want done", id, st.Phase)
		}
	}
	if _, err := f.Job(f.GlobalID(0, 99999)); !errors.Is(err, engine.ErrNotFound) {
		t.Errorf("unknown ID error = %v, want ErrNotFound", err)
	}
	if _, err := f.Job(-3); !errors.Is(err, engine.ErrNotFound) {
		t.Errorf("negative ID error = %v, want ErrNotFound", err)
	}
}

func TestClusterAggregatesSlices(t *testing.T) {
	fleet := cluster.EC2EightRegions()
	f := mustFed(t, Config{
		Shards:  3,
		Cluster: fleet,
		Member:  testMember(100, 0),
	})
	cs, err := f.Cluster()
	if err != nil {
		t.Fatalf("Cluster: %v", err)
	}
	if len(cs.Sites) != fleet.N() {
		t.Fatalf("aggregated view has %d sites, want %d", len(cs.Sites), fleet.N())
	}
	for x, s := range cs.Sites {
		if s.Slots != fleet.Sites[x].Slots {
			t.Errorf("site %d aggregated slots %d, want %d", x, s.Slots, fleet.Sites[x].Slots)
		}
	}
	if cs.MaxPending != 300 {
		t.Errorf("aggregated MaxPending %d, want 300", cs.MaxPending)
	}
}

func TestSubmitSpillsAndRejectsWhenAllFull(t *testing.T) {
	f := mustFed(t, Config{
		Shards:  2,
		Cluster: cluster.EC2EightRegions(),
		// One admitted job per shard; long-running so nothing drains.
		Member: testMember(1, 1),
	})
	accepted := 0
	var lastErr error
	for i := 0; i < 4; i++ {
		_, err := f.Submit(benchJob(i, 3600))
		if err == nil {
			accepted++
			continue
		}
		lastErr = err
	}
	if accepted != 2 {
		t.Fatalf("accepted %d submissions with 2 one-slot shards, want 2", accepted)
	}
	if !errors.Is(lastErr, engine.ErrQueueFull) {
		t.Fatalf("all-full error = %v, want to unwrap to ErrQueueFull", lastErr)
	}
	if s := f.RetryAfter(); s < 1 || s > 60 {
		t.Errorf("RetryAfter = %d, want within [1,60]", s)
	}
	if got := f.rejected.Load(); got < 1 {
		t.Errorf("rejected counter %d, want >= 1", got)
	}
}

func TestUpdateClusterFansOut(t *testing.T) {
	fleet := cluster.EC2EightRegions()
	f := mustFed(t, Config{
		Shards:  2,
		Cluster: fleet,
		Member:  testMember(100, 0),
	})
	// Absolute slot target re-partitions across the slices.
	if _, err := f.UpdateCluster([]engine.SiteUpdate{{Site: 0, Slots: 4, UpBW: 0, DownBW: 0}}); err != nil {
		t.Fatalf("UpdateCluster: %v", err)
	}
	cs, err := f.Cluster()
	if err != nil {
		t.Fatalf("Cluster: %v", err)
	}
	if cs.Sites[0].Slots != 4 {
		t.Errorf("site 0 aggregated slots %d after absolute update, want 4", cs.Sites[0].Slots)
	}
	// Validation happens against the fleet before any fan-out.
	if _, err := f.UpdateCluster([]engine.SiteUpdate{{Site: fleet.N(), Slots: -1}}); err == nil {
		t.Error("out-of-range site accepted")
	}
	if _, err := f.UpdateCluster([]engine.SiteUpdate{{Site: 0, Slots: -1, Frac: 1.5}}); err == nil {
		t.Error("frac > 1 accepted")
	}
}

func TestMetricsMergeCountsEveryJobOnce(t *testing.T) {
	f := mustFed(t, Config{
		Shards:  2,
		Cluster: cluster.EC2EightRegions(),
		Member:  testMember(0, 0),
	})
	const n = 10
	for i := 0; i < n; i++ {
		if _, err := f.Submit(benchJob(i, 1)); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	drainFed(t, f)
	reg, err := f.MetricsRegistry()
	if err != nil {
		t.Fatalf("MetricsRegistry: %v", err)
	}
	if got := reg.Counter("jobs.done").Value(); got != n {
		t.Errorf("merged jobs.done = %g, want %d", got, n)
	}
	if got := reg.Gauge("federation.shards").Value(); got != 2 {
		t.Errorf("federation.shards = %g, want 2", got)
	}
	if got := reg.Counter("federation.submitted").Value(); got != n {
		t.Errorf("federation.submitted = %g, want %d", got, n)
	}
}

func TestEventsMergeWithCompositeCursor(t *testing.T) {
	f := mustFed(t, Config{
		Shards:  2,
		Cluster: cluster.EC2EightRegions(),
		Member:  testMember(0, 0),
	})
	for i := 0; i < 8; i++ {
		if _, err := f.Submit(benchJob(i, 1)); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	drainFed(t, f)

	evs, next, missed, err := f.EventsSince(nil)
	if err != nil {
		t.Fatalf("EventsSince: %v", err)
	}
	if missed != 0 {
		t.Errorf("missed = %d, want 0", missed)
	}
	if len(next) != 2 {
		t.Fatalf("next cursor has %d fields, want 2", len(next))
	}
	shardsSeen := map[int]bool{}
	for i, se := range evs {
		shardsSeen[se.Shard] = true
		if i > 0 && se.Event.Time() < evs[i-1].Event.Time() {
			t.Fatalf("events not time-ordered at %d", i)
		}
	}
	if len(shardsSeen) != 2 {
		t.Errorf("merged stream covers shards %v, want both", shardsSeen)
	}
	// Cursor round-trip: nothing new after the drain settles.
	again, next2, _, err := f.EventsSince(next)
	if err != nil {
		t.Fatalf("EventsSince(next): %v", err)
	}
	if len(again) != 0 {
		t.Errorf("EventsSince(next) returned %d events, want 0", len(again))
	}
	if FormatCursor(next2) != FormatCursor(next) {
		t.Errorf("cursor advanced with no activity: %v -> %v", next, next2)
	}
	// Arity mismatch is an error, not a silent reset.
	if _, _, _, err := f.EventsSince([]int64{0}); err == nil {
		t.Error("short cursor vector accepted")
	}
}

func TestCursorFormatParse(t *testing.T) {
	v := []int64{0, 42, 7}
	s := FormatCursor(v)
	if s != "0:42:7" {
		t.Fatalf("FormatCursor = %q", s)
	}
	got, err := ParseCursor(s, 3)
	if err != nil {
		t.Fatalf("ParseCursor: %v", err)
	}
	for i := range v {
		if got[i] != v[i] {
			t.Fatalf("ParseCursor = %v, want %v", got, v)
		}
	}
	for _, bad := range []string{"0:42", "0:42:7:9", "a:1:2", "-1:0:0", "", "5"} {
		if _, err := ParseCursor(bad, 3); err == nil {
			t.Errorf("ParseCursor(%q) accepted", bad)
		}
	}
	// The single-engine ?since=0 idiom means "from the beginning" at any
	// shard count.
	zero, err := ParseCursor("0", 3)
	if err != nil {
		t.Fatalf("ParseCursor(\"0\"): %v", err)
	}
	for i, c := range zero {
		if c != 0 {
			t.Fatalf("ParseCursor(\"0\")[%d] = %d, want 0", i, c)
		}
	}
}

func TestReadyAndHealthy(t *testing.T) {
	f := mustFed(t, Config{
		Shards:  2,
		Cluster: cluster.EC2EightRegions(),
		Member:  testMember(0, 0),
	})
	if ok, reason := f.Ready(); !ok || reason != "ready" {
		t.Errorf("Ready = %v %q, want true ready", ok, reason)
	}
	if !f.Healthy() {
		t.Error("Healthy = false on a live federation")
	}
	// One shard down: degraded but still serving.
	f.Shard(0).Close()
	if ok, reason := f.Ready(); !ok {
		t.Errorf("Ready = false with one live shard (%q)", reason)
	} else if reason == "ready" {
		t.Errorf("Ready reason %q does not surface the lost shard", reason)
	}
	if !f.Healthy() {
		t.Error("Healthy = false with one live shard")
	}
	if _, err := f.Submit(benchJob(0, 1)); err != nil {
		t.Errorf("Submit with one live shard: %v", err)
	}
	// Both down: the fleet is gone.
	f.Shard(1).Close()
	if ok, _ := f.Ready(); ok {
		t.Error("Ready = true with no live shards")
	}
	if f.Healthy() {
		t.Error("Healthy = true with no live shards")
	}
	if _, err := f.Jobs(); !errors.Is(err, ErrNoShards) {
		t.Errorf("Jobs error = %v, want ErrNoShards", err)
	}
}

func TestNewValidation(t *testing.T) {
	cl := cluster.EC2EightRegions()
	if _, err := New(Config{Shards: 0, Cluster: cl, Member: testMember(0, 0)}); err == nil {
		t.Error("Shards 0 accepted")
	}
	if _, err := New(Config{Shards: 2, Member: testMember(0, 0)}); err == nil {
		t.Error("nil cluster accepted")
	}
	if _, err := New(Config{Shards: 2, Cluster: cl}); err == nil {
		t.Error("nil Member accepted")
	}
	if _, err := New(Config{Shards: cl.TotalSlots() + 1, Cluster: cl, Member: testMember(0, 0)}); err == nil {
		t.Error("more shards than slots accepted")
	}
}
