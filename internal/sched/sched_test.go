package sched

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestOrderSRPT(t *testing.T) {
	jobs := []JobInfo{
		{ID: 0, RemainingStages: 3, EstStageTime: 1},
		{ID: 1, RemainingStages: 1, EstStageTime: 9},
		{ID: 2, RemainingStages: 1, EstStageTime: 2},
		{ID: 3, RemainingStages: 2, EstStageTime: 1},
	}
	got := Order(SRPT, jobs)
	want := []int{2, 1, 3, 0} // fewest stages first, T_j breaks ties
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Order(SRPT) = %v, want %v", got, want)
		}
	}
}

func TestOrderSRPTTieBreaksByID(t *testing.T) {
	jobs := []JobInfo{
		{ID: 5, RemainingStages: 1, EstStageTime: 2},
		{ID: 3, RemainingStages: 1, EstStageTime: 2},
	}
	got := Order(SRPT, jobs)
	if jobs[got[0]].ID != 3 {
		t.Errorf("tie not broken by ID: %v", got)
	}
}

func TestOrderFIFO(t *testing.T) {
	jobs := []JobInfo{
		{ID: 2, RemainingStages: 1},
		{ID: 0, RemainingStages: 9},
		{ID: 1, RemainingStages: 5},
	}
	for _, p := range []Policy{FIFO, Fair} {
		got := Order(p, jobs)
		if jobs[got[0]].ID != 0 || jobs[got[1]].ID != 1 || jobs[got[2]].ID != 2 {
			t.Errorf("Order(%v) = %v, want arrival order", p, got)
		}
	}
}

func TestOrderDoesNotMutate(t *testing.T) {
	jobs := []JobInfo{{ID: 1}, {ID: 0}}
	Order(SRPT, jobs)
	if jobs[0].ID != 1 {
		t.Error("Order mutated input")
	}
}

func TestFairShares(t *testing.T) {
	shares := FairShares(10, []int{30, 10, 60})
	if shares[0] != 3 || shares[1] != 1 || shares[2] != 6 {
		t.Errorf("FairShares = %v, want [3 1 6]", shares)
	}
}

func TestFairSharesCappedByTasks(t *testing.T) {
	// Job 0 has only 1 task: it cannot hold 5 slots.
	shares := FairShares(10, []int{1, 1})
	if shares[0] > 1 || shares[1] > 1 {
		t.Errorf("FairShares = %v exceeds remaining tasks", shares)
	}
}

func TestFairSharesEmpty(t *testing.T) {
	if s := FairShares(10, []int{0, 0}); s[0] != 0 || s[1] != 0 {
		t.Errorf("FairShares no tasks = %v", s)
	}
	if s := FairShares(0, []int{5}); s[0] != 0 {
		t.Errorf("FairShares no slots = %v", s)
	}
}

func TestFairSharesProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(10)
		tasks := make([]int, n)
		for i := range tasks {
			tasks[i] = rng.Intn(100)
		}
		total := rng.Intn(200)
		shares := FairShares(total, tasks)
		sum := 0
		for i, s := range shares {
			if s < 0 || s > tasks[i] {
				return false
			}
			sum += s
		}
		return sum <= total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCapEpsilonExtremes(t *testing.T) {
	shares := []int{4, 3, 3}
	// ε = 1: no reservation for others; job may take everything.
	if got := Cap(1, 10, shares, 0); got != 10 {
		t.Errorf("Cap(eps=1) = %d, want 10", got)
	}
	// ε = 0: full reservation; job 0 keeps 10 − (3+3) = 4.
	if got := Cap(0, 10, shares, 0); got != 4 {
		t.Errorf("Cap(eps=0) = %d, want 4", got)
	}
	// ε = 0.5: 10 − 0.5·6 = 7.
	if got := Cap(0.5, 10, shares, 0); got != 7 {
		t.Errorf("Cap(eps=0.5) = %d, want 7", got)
	}
}

func TestCapNeverBelowOwnShare(t *testing.T) {
	shares := []int{2, 8}
	if got := Cap(0, 10, shares, 0); got < 2 {
		t.Errorf("Cap = %d, below own share 2", got)
	}
}

func TestCapClampsEpsilon(t *testing.T) {
	shares := []int{5, 5}
	if Cap(-1, 10, shares, 0) != Cap(0, 10, shares, 0) {
		t.Error("eps < 0 not clamped")
	}
	if Cap(2, 10, shares, 0) != Cap(1, 10, shares, 0) {
		t.Error("eps > 1 not clamped")
	}
}

// TestReservationMatchesCap: the reservation Instance sums once per
// instance gives every job of 12 000 random share vectors the cap Cap's
// per-job loop gives it, at ε ∈ {0, 0.1, ¼, ½, 0.9, 1}. ε ∈ {0, ¼, ½,
// 1} must take the O(1) path on every vector (else this compares Cap
// with itself); and at ε = 0.9 a total minus job k's term does round
// differently, which is why 0.1 and 0.9 keep the loop.
func TestReservationMatchesCap(t *testing.T) {
	const trials = 12000
	epss := []float64{0, 0.1, 0.25, 0.5, 0.9, 1}
	exact := make(map[float64]int)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < trials; trial++ {
		shares := make([]int, 1+rng.Intn(64))
		top := []int{2, 10, 100, 5000}[rng.Intn(4)]
		sum := 0
		for i := range shares {
			shares[i] = rng.Intn(top)
			sum += shares[i]
		}
		total := sum + rng.Intn(1+sum/4)
		for _, eps := range epss {
			r := newReservation(eps, shares)
			if r.exact {
				exact[eps]++
			}
			for k := range shares {
				if got, want := r.cap(total, shares, k), Cap(eps, total, shares, k); got != want {
					t.Fatalf("ε %v, shares %v, %d slots: job %d capped at %d, Cap says %d", eps, shares, total, k, got, want)
				}
			}
		}
	}
	for _, eps := range []float64{0, 0.25, 0.5, 1} {
		if exact[eps] != trials {
			t.Errorf("ε %v: %d of %d instances summed the reservation once", eps, exact[eps], trials)
		}
	}
	eps, shares := 0.9, []int{8, 5, 1, 1, 3}
	if once, loop := capOf(18, (1-eps)*float64(18-3), 3), Cap(eps, 18, shares, 4); once == loop {
		t.Errorf("ε 0.9, shares %v: subtracting from the total caps job 4 at %d like Cap does; the counterexample is gone", shares, once)
	}
}

func TestScaleDemand(t *testing.T) {
	d := []int{8, 4, 4}
	got := ScaleDemand(d, 8)
	sum := 0
	for i, x := range got {
		if x > d[i] {
			t.Errorf("scaled demand %d exceeds original at %d", x, i)
		}
		sum += x
	}
	if sum != 8 {
		t.Errorf("scaled sum = %d, want 8", sum)
	}
	// Proportionality: site 0 had half the demand, keeps half the cap.
	if got[0] != 4 {
		t.Errorf("got[0] = %d, want 4", got[0])
	}
}

func TestScaleDemandWithinCap(t *testing.T) {
	d := []int{1, 2}
	got := ScaleDemand(d, 10)
	if got[0] != 1 || got[1] != 2 {
		t.Errorf("ScaleDemand under cap changed demand: %v", got)
	}
}

func TestScaleDemandZeroCap(t *testing.T) {
	got := ScaleDemand([]int{5, 5}, 0)
	if got[0] != 0 || got[1] != 0 {
		t.Errorf("ScaleDemand cap=0 = %v", got)
	}
}

func TestScaleDemandProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(10)
		d := make([]int, n)
		for i := range d {
			d[i] = rng.Intn(50)
		}
		cap := rng.Intn(100)
		got := ScaleDemand(d, cap)
		sum, orig := 0, 0
		for i := range d {
			if got[i] < 0 || got[i] > d[i] {
				return false
			}
			sum += got[i]
			orig += d[i]
		}
		if orig <= cap {
			return sum == orig
		}
		return sum <= cap
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// offer is one launch call of a scheduling instance: the job offered
// and the budget it was offered.
type offer struct{ job, budget int }

// walk runs Instance with a launch that records every offer and takes
// take(k, budget) slots.
func walk(policy Policy, eps float64, free int, jobs []JobInfo, take func(k, budget int) int) ([]int, int, []offer) {
	var offers []offer
	order, launched := new(Scratch).Instance(policy, eps, free, jobs, func(k, budget int) int {
		offers = append(offers, offer{k, budget})
		return take(k, budget)
	})
	return order, launched, offers
}

func all(_, budget int) int { return budget }

func TestInstanceWalksPolicyOrder(t *testing.T) {
	jobs := []JobInfo{
		{ID: 0, RemainingStages: 3, RemainingTasks: 1},
		{ID: 1, RemainingStages: 1, RemainingTasks: 1},
		{ID: 2, RemainingStages: 2, RemainingTasks: 1},
	}
	for _, tc := range []struct {
		policy Policy
		want   []int
	}{
		{SRPT, []int{1, 2, 0}}, // fewest remaining stages first
		{FIFO, []int{0, 1, 2}},
		{Fair, []int{0, 1, 2}},
	} {
		order, launched, offers := walk(tc.policy, 1, 10, jobs, func(int, int) int { return 1 })
		if !reflect.DeepEqual(order, tc.want) {
			t.Errorf("%v: order %v, want %v", tc.policy, order, tc.want)
		}
		if launched != 3 || len(offers) != 3 {
			t.Fatalf("%v: launched %d over %d offers, want 3 over 3", tc.policy, launched, len(offers))
		}
		for i, o := range offers {
			if o.job != tc.want[i] {
				t.Errorf("%v: offer %d went to job %d, want %d", tc.policy, i, o.job, tc.want[i])
			}
		}
	}
}

// TestInstanceOffersCap: each job is offered Cap of the slots still
// free, against the instance's fair shares (here [3 1 6] of 10).
func TestInstanceOffersCap(t *testing.T) {
	jobs := []JobInfo{
		{ID: 0, RemainingStages: 1, RemainingTasks: 30},
		{ID: 1, RemainingStages: 1, RemainingTasks: 10},
		{ID: 2, RemainingStages: 1, RemainingTasks: 60},
	}
	shares := []int{3, 1, 6}
	for _, eps := range []float64{0, 0.5} {
		free := 10
		// No job launches more than 3.
		_, launched, offers := walk(SRPT, eps, free, jobs, func(_, budget int) int { return min(budget, 3) })
		if len(offers) != 3 {
			t.Fatalf("eps %g: %d offers, want 3", eps, len(offers))
		}
		for _, o := range offers {
			if want := Cap(eps, free, shares, o.job); o.budget != want {
				t.Errorf("eps %g: job %d offered %d with %d free, want Cap = %d", eps, o.job, o.budget, free, want)
			}
			free -= min(o.budget, 3)
		}
		if launched != 10-free {
			t.Errorf("eps %g: launched %d, want %d", eps, launched, 10-free)
		}
	}
	// ε = 0 gives each job exactly its share.
	_, _, offers := walk(SRPT, 0, 10, jobs, all)
	if want := []offer{{0, 3}, {1, 1}, {2, 6}}; !reflect.DeepEqual(offers, want) {
		t.Errorf("eps 0 offers %v, want %v", offers, want)
	}
	// Fair ignores ε and walks as ε = 0 does.
	if _, _, fair := walk(Fair, 1, 10, jobs, all); !reflect.DeepEqual(fair, offers) {
		t.Errorf("Fair at eps 1 offers %v, want the eps 0 offers %v", fair, offers)
	}
}

// TestInstanceStopsWhenFull: once a job takes the last free slot, no
// later job is offered anything; a job that launches nothing does not
// end the walk.
func TestInstanceStopsWhenFull(t *testing.T) {
	jobs := []JobInfo{{ID: 0, RemainingTasks: 5}, {ID: 1, RemainingTasks: 5}, {ID: 2, RemainingTasks: 5}}
	order, launched, offers := walk(FIFO, 1, 4, jobs, func(k, budget int) int {
		if k == 0 {
			return 0
		}
		return budget
	})
	if want := []offer{{0, 4}, {1, 4}}; !reflect.DeepEqual(offers, want) {
		t.Errorf("offers %v, want %v", offers, want)
	}
	if launched != 4 || len(order) != 3 {
		t.Errorf("launched %d, order %v; want 4 and all three jobs ordered", launched, order)
	}
	if _, _, offers := walk(SRPT, 1, 0, jobs, all); len(offers) != 0 {
		t.Errorf("offers with no free slot: %v", offers)
	}
}

func TestAllocate(t *testing.T) {
	for _, tc := range []struct {
		name         string
		demand, free []int
		budget       int
		want         []int
	}{
		{"within free and budget", []int{1, 2, 3}, []int{4, 4, 4}, 10, []int{1, 2, 3}},
		{"free caps demand", []int{5, 5, 5}, []int{4, 1, 0}, 20, []int{4, 1, 0}},
		{"negative free gives nothing", []int{3, 3, 3}, []int{-2, 1, 5}, 10, []int{0, 1, 3}},
		{"zero demand", []int{0, 2, 0}, []int{4, 4, 4}, 10, []int{0, 2, 0}},
		{"budget scales down proportionally", []int{4, 4, 4}, []int{4, 4, 4}, 6, []int{2, 2, 2}},
		{"zero budget", []int{4, 4}, []int{4, 4}, 0, []int{0, 0}},
	} {
		if got := Allocate(tc.demand, tc.free, tc.budget); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: Allocate(%v, %v, %d) = %v, want %v", tc.name, tc.demand, tc.free, tc.budget, got, tc.want)
		}
	}
}

// TestAllocateScalesCappedDemand: past the budget, Allocate is
// ScaleDemand of the free-capped demand — not of the raw demand.
func TestAllocateScalesCappedDemand(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		demand, free, capped := make([]int, n), make([]int, n), make([]int, n)
		total := 0
		for x := range demand {
			demand[x] = rng.Intn(20)
			free[x] = rng.Intn(20) - 5
			capped[x] = max(0, min(demand[x], free[x]))
			total += capped[x]
		}
		budget := rng.Intn(40)
		got := Allocate(demand, free, budget)
		if total <= budget {
			return reflect.DeepEqual(got, capped)
		}
		return reflect.DeepEqual(got, ScaleDemand(capped, budget))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	got := Allocate([]int{6, 1, 5}, []int{4, 4, -1}, 3)
	if want := ScaleDemand([]int{4, 1, 0}, 3); !reflect.DeepEqual(got, want) {
		t.Errorf("Allocate = %v, want ScaleDemand([4 1 0], 3) = %v", got, want)
	}
}

func TestPolicyString(t *testing.T) {
	if SRPT.String() != "srpt" || FIFO.String() != "fifo" || Fair.String() != "fair" {
		t.Error("Policy strings wrong")
	}
}

// TestInstanceAllocs: a scheduling pass over 64 jobs with free slots
// allocates nothing once its Scratch has grown to fit.
func TestInstanceAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	rng := rand.New(rand.NewSource(3))
	jobs := make([]JobInfo, 64)
	for i := range jobs {
		jobs[i] = JobInfo{ID: i, RemainingStages: 1 + rng.Intn(4), EstStageTime: rng.Float64(), RemainingTasks: 1 + rng.Intn(50)}
	}
	var s Scratch
	for _, policy := range []Policy{SRPT, FIFO, Fair} {
		if n := testing.AllocsPerRun(100, func() {
			s.Instance(policy, 0.5, 200, jobs, func(int, int) int { return 0 })
		}); n != 0 {
			t.Errorf("%v: %v allocations per instance, want 0", policy, n)
		}
	}
}

// BenchmarkInstance times one scheduling pass with free slots left and
// a no-op launch, so the order, the fair shares and the caps are the
// whole cost.
func BenchmarkInstance(b *testing.B) {
	for _, n := range []int{64, 400} {
		rng := rand.New(rand.NewSource(3))
		jobs := make([]JobInfo, n)
		for i := range jobs {
			jobs[i] = JobInfo{ID: i, RemainingStages: 1 + rng.Intn(4), EstStageTime: rng.Float64(), RemainingTasks: 1 + rng.Intn(50)}
		}
		b.Run(fmt.Sprintf("jobs=%d", n), func(b *testing.B) {
			var s Scratch
			for i := 0; i < b.N; i++ {
				s.Instance(SRPT, 0.5, 200, jobs, func(int, int) int { return 0 })
			}
		})
	}
}

// TestOrderMatchesSliceStable: the order and the fair shares are the
// ones sort.SliceStable gives with the same less functions, on jobs with
// tied keys and NaN estimates.
func TestOrderMatchesSliceStable(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 500; trial++ {
		jobs := make([]JobInfo, rng.Intn(70))
		rem := make([]int, len(jobs))
		for i := range jobs {
			est := float64(rng.Intn(4))
			if rng.Float64() < 0.1 {
				est = math.NaN()
			}
			jobs[i] = JobInfo{ID: rng.Intn(40), RemainingStages: 1 + rng.Intn(3), EstStageTime: est, RemainingTasks: rng.Intn(9)}
			rem[i] = jobs[i].RemainingTasks
		}
		for _, policy := range []Policy{SRPT, FIFO} {
			if got, want := Order(policy, jobs), sliceStableOrder(policy, jobs); !reflect.DeepEqual(got, want) {
				t.Fatalf("%v order %v, sort.SliceStable %v", policy, got, want)
			}
		}
		free := rng.Intn(100)
		if got, want := FairShares(free, rem), sliceStableShares(free, rem); !reflect.DeepEqual(got, want) {
			t.Fatalf("shares %v, sort.SliceStable %v", got, want)
		}
	}
}

func sliceStableOrder(policy Policy, jobs []JobInfo) []int {
	idx := make([]int, len(jobs))
	for i := range idx {
		idx[i] = i
	}
	if policy != SRPT {
		sort.SliceStable(idx, func(a, b int) bool { return jobs[idx[a]].ID < jobs[idx[b]].ID })
		return idx
	}
	sort.SliceStable(idx, func(a, b int) bool {
		ja, jb := jobs[idx[a]], jobs[idx[b]]
		if ja.RemainingStages != jb.RemainingStages {
			return ja.RemainingStages < jb.RemainingStages
		}
		if ja.EstStageTime != jb.EstStageTime {
			return ja.EstStageTime < jb.EstStageTime
		}
		return ja.ID < jb.ID
	})
	return idx
}

func sliceStableShares(totalSlots int, remTasks []int) []int {
	shares := make([]int, len(remTasks))
	totalTasks := 0
	for _, f := range remTasks {
		totalTasks += f
	}
	if totalTasks == 0 || totalSlots <= 0 {
		return shares
	}
	rems := make([]remainder, len(remTasks))
	assigned := 0
	for i, f := range remTasks {
		exact := float64(totalSlots) * float64(f) / float64(totalTasks)
		shares[i] = min(int(exact), f)
		assigned += shares[i]
		rems[i] = remainder{i, exact - float64(shares[i])}
	}
	sort.SliceStable(rems, func(a, b int) bool { return rems[a].frac > rems[b].frac })
	for k := 0; assigned < totalSlots && k < 4*len(rems); k++ {
		if i := rems[k%len(rems)].idx; shares[i] < remTasks[i] {
			shares[i]++
			assigned++
		}
	}
	return shares
}
