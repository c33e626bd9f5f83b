package place

import (
	"math"

	"tetrium/internal/lp"
)

// Iridium is the paper's primary baseline (§6.1b): the low-latency
// geo-analytics system of Pu et al. (SIGMOD '15 [47]). It processes map
// tasks at the sites holding their input ("processes all the map tasks
// locally") and places reduce tasks to minimize shuffle time alone,
// assuming compute slots are plentiful — exactly the omission Tetrium's
// §2.2 example exploits.
type Iridium struct {
	// Check certifies the shuffle LP solve through internal/check, like
	// Tetrium.Check. Debug/CI use; off by default.
	Check bool
}

// Name implements Placer.
func (Iridium) Name() string { return "iridium" }

// PlaceMap is In-Place's: every map task stays at its data's site.
func (Iridium) PlaceMap(res Resources, req MapRequest) (MapPlacement, error) {
	return InPlace{}.PlaceMap(res, req)
}

// PlaceReduce solves the shuffle-only LP (the paper's Eq. 6 with only
// T_shufl in the objective).
func (i Iridium) PlaceReduce(res Resources, req ReduceRequest) (ReducePlacement, error) {
	ws := lp.AcquireWorkspace()
	defer lp.ReleaseWorkspace(ws)
	return solveReduce(res, req, false, i.Check, ws, nil)
}

// InPlace is the site-locality baseline (§6.1a): default Spark behaviour
// where every task runs where its data is — map tasks at their partition
// sites, reduce tasks spread in proportion to the intermediate data. A
// site without slots cannot run its share, so that share spreads over
// the sites with slots in proportion to their slots (and stays put when
// no site has any). It is also every placer's answer when it has none of
// its own: Iridium's maps, Tetrium's LP failures, and the engine's and
// the simulator's stopgap.
type InPlace struct{}

// Name implements Placer.
func (InPlace) Name() string { return "in-place" }

// PlaceMap leaves every map task at its data's site.
func (InPlace) PlaceMap(res Resources, req MapRequest) (MapPlacement, error) {
	if err := res.validate(); err != nil {
		return MapPlacement{}, err
	}
	return fallbackMap(res, req), nil
}

// PlaceReduce spreads reduce tasks proportionally to each site's
// intermediate bytes (locality: most of a task's input is then local).
func (InPlace) PlaceReduce(res Resources, req ReduceRequest) (ReducePlacement, error) {
	if err := res.validate(); err != nil {
		return ReducePlacement{}, err
	}
	return fallbackReduce(res, req), nil
}

// fallbackMap is InPlace.PlaceMap on validated resources. With no input
// the tasks balance over slots, each site "holding" its own zero-byte
// share: the diagonal, so WAN accounting derived from the fraction
// matrix sees no flow.
func fallbackMap(res Resources, req MapRequest) MapPlacement {
	n := res.N()
	m := newGrid[float64](n)
	total := req.TotalInput()
	if total <= 0 {
		for y, f := range uniformOverSlots(res.Slots) {
			m[y][y] = f
		}
	} else {
		for x, b := range req.InputBySite {
			keepOrSpread(m[x], x, b/total, res)
		}
	}
	return finishMap(res, req, m,
		aggrTime(res, m, total),
		computeTime(req.TaskCompute, req.NumTasks, destShares(m), res.Slots))
}

// fallbackReduce is InPlace.PlaceReduce on validated resources. With no
// intermediate data the tasks balance over slots.
func fallbackReduce(res Resources, req ReduceRequest) ReducePlacement {
	total := req.TotalInter()
	var frac []float64
	if total <= 0 {
		frac = uniformOverSlots(res.Slots)
	} else {
		frac = make([]float64, res.N())
		for x, b := range req.InterBySite {
			keepOrSpread(frac, x, b/total, res)
		}
	}
	return finishReduce(res, req, frac,
		shuffleTime(res, req.InterBySite, frac),
		computeTime(req.TaskCompute, req.NumTasks, frac, res.Slots))
}

// keepOrSpread adds site x's share of a stage to the per-site fractions
// dst: at x when x has slots, otherwise over the sites with slots in
// proportion to their slots, and at x after all when no site has any.
func keepOrSpread(dst []float64, x int, share float64, res Resources) {
	total := res.TotalSlots()
	if res.Slots[x] > 0 || total <= 0 {
		dst[x] += share
		return
	}
	for y, s := range res.Slots {
		if s > 0 {
			dst[y] += share * float64(s) / float64(total)
		}
	}
}

// destShares returns the column sums of a map fraction matrix: the share
// of the stage's tasks that runs at each site.
func destShares(m [][]float64) []float64 {
	out := make([]float64, len(m))
	for x := range m {
		for y, f := range m[x] {
			out[y] += f
		}
	}
	return out
}

// Centralized aggregates all input data to the most powerful site
// upfront and runs every task there (§6.3's additional baseline).
type Centralized struct {
	// Target overrides the aggregation site; -1 (or zero value via
	// NewCentralized) selects the site with the most slots.
	Target int
}

// NewCentralized returns a Centralized placer that auto-selects the
// most powerful site.
func NewCentralized() Centralized { return Centralized{Target: -1} }

// Name implements Placer.
func (Centralized) Name() string { return "centralized" }

func (c Centralized) target(res Resources) int {
	if c.Target >= 0 && c.Target < res.N() {
		return c.Target
	}
	best := 0
	for i, s := range res.Slots {
		if s > res.Slots[best] || (s == res.Slots[best] && res.DownBW[i] > res.DownBW[best]) {
			best = i
		}
	}
	return best
}

// PlaceMap sends every partition to the target site.
func (c Centralized) PlaceMap(res Resources, req MapRequest) (MapPlacement, error) {
	if err := res.validate(); err != nil {
		return MapPlacement{}, err
	}
	n := res.N()
	dst := c.target(res)
	total := req.TotalInput()
	m := make([][]float64, n)
	for x := range m {
		m[x] = make([]float64, n)
		if total > 0 {
			m[x][dst] = req.InputBySite[x] / total
		}
	}
	if total <= 0 {
		// Zero-byte partitions "live" at the destination already: the
		// diagonal entry records the mass without inventing a 0→dst flow
		// from site 0 in WAN accounting.
		m[dst][dst] = 1
	}
	frac := make([]float64, n)
	frac[dst] = 1
	return finishMap(res, req, m,
		aggrTime(res, m, total),
		computeTime(req.TaskCompute, req.NumTasks, frac, res.Slots)), nil
}

// PlaceReduce runs every reduce task at the target site.
func (c Centralized) PlaceReduce(res Resources, req ReduceRequest) (ReducePlacement, error) {
	if err := res.validate(); err != nil {
		return ReducePlacement{}, err
	}
	n := res.N()
	dst := c.target(res)
	frac := make([]float64, n)
	frac[dst] = 1
	return finishReduce(res, req, frac,
		shuffleTime(res, req.InterBySite, frac),
		computeTime(req.TaskCompute, req.NumTasks, frac, res.Slots)), nil
}

// Tetris is a multi-resource packing baseline in the style of Grandl et
// al. (SIGCOMM '14 [28]), which the paper compares against in §6.3.1. It
// assigns each task a pre-determined resource demand vector (one slot
// plus an estimated network demand) and greedily packs tasks onto the
// site whose available-resource vector has the highest dot product with
// the demand — per-task, without Tetrium's global per-stage balancing.
// Its weakness in the geo-distributed setting is exactly what the paper
// notes: the network demand is a static pre-configured estimate, while
// real WAN usage depends on where the rest of the stage lands.
type Tetris struct{}

// Name implements Placer.
func (Tetris) Name() string { return "tetris" }

// PlaceMap packs map tasks site by site using alignment scores.
func (Tetris) PlaceMap(res Resources, req MapRequest) (MapPlacement, error) {
	if err := res.validate(); err != nil {
		return MapPlacement{}, err
	}
	n := res.N()
	total := req.TotalInput()
	if total <= 0 {
		return fallbackMap(res, req), nil
	}
	m := newGrid[float64](n)

	// Pre-configured per-task demand: one slot and the task's input
	// bytes of network transfer when placed remotely.
	perTaskBytes := total / float64(req.NumTasks)
	free := make([]float64, n)
	maxSlots := 1.0
	for i, s := range res.Slots {
		free[i] = float64(s)
		if float64(s) > maxSlots {
			maxSlots = float64(s)
		}
	}
	maxBW := 1.0
	for i := range res.UpBW {
		maxBW = math.Max(maxBW, math.Max(res.UpBW[i], res.DownBW[i]))
	}
	// Tasks grouped by source site, packed one at a time.
	counts := apportion(req.InputBySite, req.NumTasks)
	for x := 0; x < n; x++ {
		for k := 0; k < counts[x]; k++ {
			best, bestScore := -1, math.Inf(-1)
			for y := 0; y < n; y++ {
				if free[y] < 1 {
					continue
				}
				// Alignment: available slots × slot demand + available
				// bandwidth × network demand (zero when local).
				score := free[y] / maxSlots
				if y != x {
					netAvail := math.Min(res.UpBW[x], res.DownBW[y]) / maxBW
					netDemand := perTaskBytes / (perTaskBytes + 1)
					score += netAvail * netDemand
					// Remote placement consumes the demand; penalize by
					// the fixed remote-access penalty Tetris-style
					// packers use.
					score -= 0.5 * netDemand
				}
				if score > bestScore {
					bestScore = score
					best = y
				}
			}
			if best == -1 {
				// All sites exhausted their snapshot of free slots:
				// overflow to the site with the most total slots
				// (multi-wave execution handles the queueing).
				best = 0
				for y := 1; y < n; y++ {
					if res.Slots[y] > res.Slots[best] {
						best = y
					}
				}
			} else {
				free[best]--
			}
			m[x][best] += 1 / float64(req.NumTasks)
		}
	}
	return finishMap(res, req, m,
		aggrTime(res, m, total),
		computeTime(req.TaskCompute, req.NumTasks, destShares(m), res.Slots)), nil
}

// PlaceReduce packs reduce tasks by the same alignment score, using each
// task's pre-configured download demand (its share of all remote bytes).
func (Tetris) PlaceReduce(res Resources, req ReduceRequest) (ReducePlacement, error) {
	if err := res.validate(); err != nil {
		return ReducePlacement{}, err
	}
	n := res.N()
	total := req.TotalInter()
	free := make([]float64, n)
	maxSlots := 1.0
	for i, s := range res.Slots {
		free[i] = float64(s)
		maxSlots = math.Max(maxSlots, float64(s))
	}
	maxBW := 1.0
	for i := range res.DownBW {
		maxBW = math.Max(maxBW, res.DownBW[i])
	}
	counts := make([]int, n)
	for k := 0; k < req.NumTasks; k++ {
		best, bestScore := -1, math.Inf(-1)
		for y := 0; y < n; y++ {
			if free[y] < 1 {
				continue
			}
			score := free[y] / maxSlots
			if total > 0 {
				// Fraction of the shuffle input that would be remote.
				remote := (total - req.InterBySite[y]) / total
				score += res.DownBW[y] / maxBW * (1 - remote)
			}
			if score > bestScore {
				bestScore = score
				best = y
			}
		}
		if best == -1 {
			best = 0
			for y := 1; y < n; y++ {
				if res.Slots[y] > res.Slots[best] {
					best = y
				}
			}
		} else {
			free[best]--
		}
		counts[best]++
	}
	frac := make([]float64, n)
	for x, c := range counts {
		frac[x] = float64(c) / float64(req.NumTasks)
	}
	p := ReducePlacement{
		Frac:   frac,
		Tasks:  counts,
		TShufl: shuffleTime(res, req.InterBySite, frac),
		TRed:   computeTime(req.TaskCompute, req.NumTasks, frac, res.Slots),
	}
	return p, nil
}
