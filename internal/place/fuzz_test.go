package place

import (
	"errors"
	"math/rand"
	"testing"

	"tetrium/internal/check"
	"tetrium/internal/lp"
	"tetrium/internal/units"
)

// fuzzBudget draws the §4.3 budget of a stage: none, or W(ρ) for ρ on a
// five-point grid, and reports whether the LP must then be infeasible.
// forced is the bytes no placement can avoid moving (data stranded on
// zero-slot sites); W_min assumes there are none, so a small ρ can ask
// for less than that. Budgets within 10⁻⁶ of forced are moved off it:
// the verdict there belongs to the solver's tolerances.
func fuzzBudget(rng *rand.Rand, kind BudgetKind, data []float64, forced float64) (w float64, infeasible bool) {
	if rng.Float64() < 0.3 {
		return -1, false
	}
	w = WANBudget(float64(rng.Intn(5))/4, kind, data)
	if w > forced*(1-1e-6) && w < forced*(1+1e-6) {
		w = forced * (1 + 1e-6)
	}
	return w, w < forced
}

// FuzzPlaceMap drives Tetrium's map placement (certify mode, so every
// LP solve is certificate-checked internally) over randomized clusters
// and stage shapes, asserting the returned fraction matrix obeys the
// paper's Eq. 5 conservation, the task matrix apportions exactly the
// requested task count, a §4.3 budget drawn per stage is kept — or
// reported infeasible exactly when it cannot be — and the placement is
// bit for bit the dense reference refine of the same LP answer.
func FuzzPlaceMap(f *testing.F) {
	for _, s := range []int64{1, 2, 3, 77, -12345} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		res := Resources{
			Slots:  make([]int, n),
			UpBW:   make([]float64, n),
			DownBW: make([]float64, n),
		}
		anySlots := false
		for i := 0; i < n; i++ {
			if rng.Float64() < 0.15 {
				res.Slots[i] = 0 // zero-slot sites are legal sources
			} else {
				res.Slots[i] = 1 + rng.Intn(100)
				anySlots = true
			}
			res.UpBW[i] = (10 + rng.Float64()*1990) * units.Mbps
			res.DownBW[i] = (10 + rng.Float64()*1990) * units.Mbps
		}
		if !anySlots {
			res.Slots[0] = 1 + rng.Intn(100)
		}
		input := make([]float64, n)
		for i := range input {
			if rng.Float64() < 0.25 {
				continue // sites without data
			}
			input[i] = rng.Float64() * 30 * units.GB
		}
		req := MapRequest{
			InputBySite: input,
			NumTasks:    1 + rng.Intn(300),
			TaskCompute: 0.1 + rng.Float64()*5,
		}
		// A map stage must move whatever sits on a zero-slot site; a
		// reduce stage everything but what its best slotted site holds.
		stranded, allBytes, bestSlotted := 0.0, 0.0, 0.0
		for i, b := range input {
			allBytes += b
			if res.Slots[i] == 0 {
				stranded += b
			} else if b > bestSlotted {
				bestSlotted = b
			}
		}
		var infeasible bool
		req.WANBudget, infeasible = fuzzBudget(rng, MapBudget, input, stranded)
		tet := Tetrium{Check: true}
		if rng.Float64() < 0.3 {
			tet.MaxDest = 1 + rng.Intn(n)
		}
		mp, err := tet.PlaceMap(res, req)
		if infeasible {
			if !errors.Is(err, lp.ErrInfeasible) {
				t.Fatalf("PlaceMap with a budget of %g against %g stranded bytes (seed %d): err = %v, want lp.ErrInfeasible", req.WANBudget, stranded, seed, err)
			}
			return
		}
		if err != nil {
			t.Fatalf("PlaceMap failed under certification (seed %d): %v", seed, err)
		}
		if req.WANBudget >= 0 {
			if moved := mp.WANBytes(input); moved > req.WANBudget*(1+1e-6) {
				t.Fatalf("map placement moves %g bytes over a budget of %g (seed %d)", moved, req.WANBudget, seed)
			}
		}
		if cerr := check.MapFractions(mp.Frac, input, req.NumTasks); cerr != nil {
			t.Fatalf("map placement violates Eq. 5 (seed %d): %v", seed, cerr)
		}
		total := 0
		for x := range mp.Tasks {
			for y, c := range mp.Tasks[x] {
				if c < 0 {
					t.Fatalf("negative task count at m[%d][%d] (seed %d)", x, y, seed)
				}
				if c > 0 && res.Slots[y] == 0 && req.TotalInput() > 0 {
					t.Fatalf("tasks placed at zero-slot site %d (seed %d)", y, seed)
				}
				total += c
			}
		}
		if total != req.NumTasks {
			t.Fatalf("apportioned %d tasks, want %d (seed %d)", total, req.NumTasks, seed)
		}
		// The refine behind it, against the dense reference.
		if req.TotalInput() > 0 {
			frac, err := lpAnswer(tet, res, req)
			if err != nil {
				t.Fatalf("map LP (seed %d): %v", seed, err)
			}
			samePlacement(t, "PlaceMap against the dense refine", mp, denseRefineMap(res, req, frac))
		}

		// Reduce placement under the same cluster.
		redReq := ReduceRequest{
			InterBySite: input,
			NumTasks:    1 + rng.Intn(200),
			TaskCompute: 0.1 + rng.Float64()*3,
		}
		redReq.WANBudget, infeasible = fuzzBudget(rng, ReduceBudget, input, allBytes-bestSlotted)
		rp, err := tet.PlaceReduce(res, redReq)
		if infeasible {
			if !errors.Is(err, lp.ErrInfeasible) {
				t.Fatalf("PlaceReduce with a budget of %g against %g unavoidable bytes (seed %d): err = %v, want lp.ErrInfeasible", redReq.WANBudget, allBytes-bestSlotted, seed, err)
			}
			return
		}
		if err != nil {
			t.Fatalf("PlaceReduce failed under certification (seed %d): %v", seed, err)
		}
		if cerr := check.ReduceFractions(rp.Frac); cerr != nil {
			t.Fatalf("reduce placement violates Eq. 10 (seed %d): %v", seed, cerr)
		}
		rTotal := 0
		for _, c := range rp.Tasks {
			rTotal += c
		}
		if rTotal != redReq.NumTasks {
			t.Fatalf("apportioned %d reduce tasks, want %d (seed %d)", rTotal, redReq.NumTasks, seed)
		}
	})
}
