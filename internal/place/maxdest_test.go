package place

import (
	"errors"
	"math/rand"
	"testing"

	"tetrium/internal/cluster"
	"tetrium/internal/lp"
	"tetrium/internal/units"
	"tetrium/internal/workload"
)

// ratioStats accumulates estimate ratios (MaxDest/unrestricted, or
// declared start/phase 1) for the summary line each differential logs.
type ratioStats struct {
	worst, sum float64
	n, over    int // over counts ratios above 1.01
}

func (r *ratioStats) add(ratio float64) {
	if ratio > r.worst {
		r.worst = ratio
	}
	if ratio > 1.01 {
		r.over++
	}
	r.sum += ratio
	r.n++
}

func (r *ratioStats) mean() float64 { return r.sum / float64(r.n) }

func (r *ratioStats) log(t *testing.T, what string) {
	t.Helper()
	t.Logf("%d %s estimate mean %.4f, worst %.4f, %d/%d > 1%%",
		r.n, what, r.mean(), r.worst, r.over, r.n)
}

// unrestrictedMap is the reference both differentials below divide by:
// the full map LP, entered through phase 1 as every MaxDest LP still is
// (no start is declared for them, ROADMAP 4(e)). The §3.1 optimum is
// often a face, not a point; the in-place start and phase 1 can stop at
// different vertices of it, equal in LP objective and certified alike,
// that refineMap's integral waves then price a few percent apart (7 of
// the 120 clusters below, either way round). Entering both sides the
// same way keeps that out of a ratio meant to price the restriction;
// TestPropertyMaxDestNearOptimal bounds the drift itself against the
// production Tetrium{}.PlaceMap.
func unrestrictedMap(res Resources, req MapRequest) (MapPlacement, error) {
	var tet Tetrium
	return tet.solveMap(res, req, tet.candidateDests(res), lp.NewWorkspace(), nil, false)
}

// TestPropertyMaxDestNearOptimal differentially tests the MaxDest
// destination-restriction heuristic (§3.3 scaling) against the
// unrestricted map LP over seeded random clusters larger than the
// facade's 16-site cutoff: restricting each partition to its own site
// plus the slot-richest and downlink-fattest candidates must keep the
// estimated stage time within 1% of the full LP's on average-shaped
// inputs — work never benefits from moving to a slot- and
// bandwidth-poor site, so the dropped columns are (near-)always zero in
// the unrestricted optimum.
func TestPropertyMaxDestNearOptimal(t *testing.T) {
	const trials = 120
	var stats, start ratioStats
	for seed := int64(0); seed < trials; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 17 + rng.Intn(14) // 17..30 sites: the facade's MaxDest regime
		res := Resources{
			Slots:  make([]int, n),
			UpBW:   make([]float64, n),
			DownBW: make([]float64, n),
		}
		for i := 0; i < n; i++ {
			res.Slots[i] = 1 + rng.Intn(60)
			res.UpBW[i] = (50 + rng.Float64()*1950) * units.Mbps
			res.DownBW[i] = (50 + rng.Float64()*1950) * units.Mbps
		}
		input := make([]float64, n)
		for i := range input {
			if rng.Float64() < 0.3 {
				continue
			}
			input[i] = rng.Float64() * 20 * units.GB
		}
		anyInput := false
		for _, b := range input {
			anyInput = anyInput || b > 0
		}
		if !anyInput {
			input[0] = 5 * units.GB
		}
		req := MapRequest{
			InputBySite: input,
			NumTasks:    20 + rng.Intn(400),
			TaskCompute: 0.5 + rng.Float64()*4,
			WANBudget:   -1,
		}

		full, err := unrestrictedMap(res, req)
		if err != nil {
			t.Fatalf("seed %d: unrestricted PlaceMap: %v", seed, err)
		}
		restricted, err := Tetrium{MaxDest: 10}.PlaceMap(res, req)
		if err != nil {
			t.Fatalf("seed %d: MaxDest PlaceMap: %v", seed, err)
		}
		fullEst, restEst := full.EstTime(), restricted.EstTime()
		if restEst > fullEst*1.01+1e-9 {
			t.Errorf("seed %d: MaxDest estimate %.4f > 1%% above unrestricted %.4f",
				seed, restEst, fullEst)
		}
		// No lower-bound assertion: EstTime is refineMap's integral
		// ceil-wave estimate, not the raw LP objective, and a restricted
		// LP's vertex can round into fewer waves than the unrestricted
		// one's — a few percent below is legitimate.
		stats.add(restEst / fullEst)

		// The production unrestricted path declares the in-place start
		// (MaxDest == 0). Above 16 sites only tests take it, and there it
		// is not decision-neutral (see unrestrictedMap): same LP
		// objective, a different vertex of the optimal face for
		// refineMap to round.
		declared, err := Tetrium{}.PlaceMap(res, req)
		if err != nil {
			t.Fatalf("seed %d: declared-start PlaceMap: %v", seed, err)
		}
		if r := declared.EstTime() / fullEst; r > 1.08 || r < 1/1.08 {
			t.Errorf("seed %d: declared-start estimate %.4f vs phase-1 %.4f: more than 8%% apart",
				seed, declared.EstTime(), fullEst)
		}
		start.add(declared.EstTime() / fullEst)
	}
	stats.log(t, "clusters: MaxDest/unrestricted")
	start.log(t, "clusters: declared start/phase 1")
	if m := start.mean(); m > 1.005 || m < 0.995 {
		t.Errorf("declared-start estimates average %.4f of the phase-1 ones, want 1 ± 0.005", m)
	}
}

// TestMaxDestNearOptimalSim50 is the same differential on the
// repository's own large clusters: the first map stage of the first
// job of each trace kind on Sim50(seed), placed on a loaded cluster —
// half the sites have no free slot and the rest a random share of
// theirs. Loaded, because at t=0 with every slot free each of these
// stages stays local under the unrestricted LP (ratio 1.0000 whatever
// MaxDest is, own sites always being candidates); with sites full,
// every one of these stages has to move data and the candidate set
// decides where to. EstTime is refineMap's ceil-wave estimate, which on
// scarce slots jumps by a whole wave between neighbouring vertices, so
// a single request can land several percent either side of the
// unrestricted answer. The bound is therefore on the mean loss, a
// request that happens to round better than the unrestricted one
// counting as no loss rather than paying for another's: ≤ 1 %. MaxDest
// 10 and 5 lose 0.55 % here, 4 loses 0.72 %, 3 loses 3.2 %, 2 6.9 % —
// a change that narrows the candidates to about four sites fails this.
// An unrestricted 50-site LP on these inputs costs ~100 ms (25× that
// under the race detector), hence six seeds.
func TestMaxDestNearOptimalSim50(t *testing.T) {
	const seeds = 6
	kinds := []struct {
		name string
		gen  func(sites, numJobs int, seed int64) workload.GenConfig
	}{
		{"bigdata", workload.BigData},
		{"tpcds", workload.TPCDS},
		{"prod", workload.ProdTrace},
	}
	var stats ratioStats
	loss := 0.0
	for seed := int64(1); seed <= seeds; seed++ {
		c := cluster.Sim50(seed)
		rng := rand.New(rand.NewSource(seed))
		free := c.Slots()
		for i := range free {
			if rng.Float64() < 0.5 {
				free[i] = 0
			} else {
				free[i] = int(float64(free[i]) * rng.Float64())
			}
		}
		res := Resources{Slots: free, UpBW: c.UpBW(), DownBW: c.DownBW()}
		for _, k := range kinds {
			job := workload.Generate(k.gen(c.N(), 1, seed))[0]
			st := job.Stages[0]
			if st.Kind != workload.MapStage {
				t.Fatalf("seed %d %s: first stage is not a map stage", seed, k.name)
			}
			req := MapRequest{
				InputBySite: st.InputBySite(c.N()),
				NumTasks:    st.NumTasks(),
				TaskCompute: st.EstCompute,
				WANBudget:   -1,
				OutputBytes: st.TotalOutput(),
			}
			full, err := unrestrictedMap(res, req)
			if err != nil {
				t.Fatalf("seed %d %s: unrestricted PlaceMap: %v", seed, k.name, err)
			}
			if full.WANBytes(req.InputBySite) == 0 {
				t.Errorf("seed %d %s: unrestricted placement moves no data; the request cannot tell candidate sets apart", seed, k.name)
			}
			restricted, err := Tetrium{MaxDest: 10}.PlaceMap(res, req)
			if err != nil {
				t.Fatalf("seed %d %s: MaxDest PlaceMap: %v", seed, k.name, err)
			}
			ratio := restricted.EstTime() / full.EstTime()
			stats.add(ratio)
			loss += max(ratio-1, 0)
		}
	}
	stats.log(t, "map LPs: MaxDest/unrestricted")
	if loss /= float64(stats.n); loss > 0.01 {
		t.Errorf("MaxDest estimates lose %.2f %% to the unrestricted ones on average, want ≤ 1 %%", 100*loss)
	}
}

// TestMaxDestInfeasibleUnderCheck pins what a restricted LP that has no
// solution answers: what the unrestricted placer answers. Data on a
// zero-slot site with a WAN budget of 0 cannot be placed (Eq. 5 against
// §4.3), so under Check it is lp.ErrInfeasible and without Check the
// fallback placement — whether or not the slot-rich sites are also the
// fat-downlink ones.
func TestMaxDestInfeasibleUnderCheck(t *testing.T) {
	const n = 20
	for _, aligned := range []bool{true, false} {
		res := Resources{
			Slots:  make([]int, n),
			UpBW:   make([]float64, n),
			DownBW: make([]float64, n),
		}
		res.UpBW[0], res.DownBW[0] = 500*units.Mbps, 500*units.Mbps
		for i := 1; i < n; i++ {
			res.Slots[i] = 10 * i
			res.UpBW[i] = 500 * units.Mbps
			rank := i
			if !aligned {
				rank = n - i
			}
			res.DownBW[i] = float64(100*rank) * units.Mbps
		}
		input := make([]float64, n)
		input[0], input[5] = 4*units.GB, 2*units.GB
		req := MapRequest{InputBySite: input, NumTasks: 60, TaskCompute: 2, WANBudget: 0}

		if _, err := (Tetrium{Check: true}).PlaceMap(res, req); !errors.Is(err, lp.ErrInfeasible) {
			t.Fatalf("aligned=%v: unrestricted Check placement: err = %v, want lp.ErrInfeasible", aligned, err)
		}
		if _, err := (Tetrium{MaxDest: 10, Check: true}).PlaceMap(res, req); !errors.Is(err, lp.ErrInfeasible) {
			t.Errorf("aligned=%v: MaxDest Check placement: err = %v, want lp.ErrInfeasible", aligned, err)
		}
		want, err := Tetrium{}.PlaceMap(res, req)
		if err != nil {
			t.Fatalf("aligned=%v: unrestricted placement: %v", aligned, err)
		}
		got, err := Tetrium{MaxDest: 10}.PlaceMap(res, req)
		if err != nil {
			t.Fatalf("aligned=%v: MaxDest placement: %v", aligned, err)
		}
		if !sameMapPlacement(want, got) {
			t.Errorf("aligned=%v: MaxDest fallback placement differs from the unrestricted placer's", aligned)
		}
	}
}
