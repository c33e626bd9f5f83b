// Package sched implements job-level scheduling across simultaneous
// geo-distributed jobs (§4): the SRPT-based ordering that uses the
// remaining stage count G_j as the primary key and the current stage's
// LP-estimated remaining time T_j as the tie-breaker (§4.1), the
// baseline FIFO and Fair orderings, and the ε-fairness slot capping of
// §4.4. The functions here are pure policy: Instance walks one
// scheduling instance and Allocate sizes one stage's launch, and both
// the simulator (internal/sim) and the serving engine (internal/engine)
// call them, supplying the per-job state and carrying out the launches.
package sched

import "sort"

// Policy selects the job-ordering rule at each scheduling instance.
type Policy int

// Policies.
const (
	// SRPT orders jobs by fewest remaining stages, then by the LP's
	// estimate of the current stage's remaining processing time (§4.1).
	SRPT Policy = iota
	// FIFO orders jobs by arrival.
	FIFO
	// Fair gives every job a proportional share of slots each instance
	// (the In-Place baseline's fair scheduler); ordering is by arrival
	// and the ε-capping below enforces the shares with ε = 0.
	Fair
)

func (p Policy) String() string {
	switch p {
	case SRPT:
		return "srpt"
	case FIFO:
		return "fifo"
	case Fair:
		return "fair"
	default:
		return "policy?"
	}
}

// JobInfo summarizes one schedulable job at a scheduling instance.
type JobInfo struct {
	ID              int     // stable identifier (arrival order)
	RemainingStages int     // G_j: stages not yet completed
	EstStageTime    float64 // T_j: LP estimate for the current stage
	RemainingTasks  int     // f_i: tasks not yet completed (fairness)
}

// Order returns the indices into jobs in scheduling order for the
// policy. The input slice is not modified.
func Order(policy Policy, jobs []JobInfo) []int {
	idx := make([]int, len(jobs))
	for i := range idx {
		idx[i] = i
	}
	switch policy {
	case SRPT:
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
	default: // FIFO and Fair order by arrival
		sort.SliceStable(idx, func(a, b int) bool {
			return jobs[idx[a]].ID < jobs[idx[b]].ID
		})
	}
	return idx
}

// FairShares returns p_i = S*·f_i/Σf_i, the slot reservation of each job
// under proportional fairness (§4.4), rounded by largest remainder to
// sum exactly to totalSlots (or fewer if there are fewer tasks).
func FairShares(totalSlots int, remTasks []int) []int {
	shares := make([]int, len(remTasks))
	totalTasks := 0
	for _, f := range remTasks {
		totalTasks += f
	}
	if totalTasks == 0 || totalSlots <= 0 {
		return shares
	}
	type rem struct {
		idx  int
		frac float64
	}
	rems := make([]rem, len(remTasks))
	assigned := 0
	for i, f := range remTasks {
		exact := float64(totalSlots) * float64(f) / float64(totalTasks)
		shares[i] = int(exact)
		// A job never needs more slots than it has tasks.
		if shares[i] > f {
			shares[i] = f
		}
		assigned += shares[i]
		rems[i] = rem{i, exact - float64(shares[i])}
	}
	sort.SliceStable(rems, func(a, b int) bool { return rems[a].frac > rems[b].frac })
	for k := 0; assigned < totalSlots && k < 4*len(rems); k++ {
		i := rems[k%len(rems)].idx
		if shares[i] < remTasks[i] {
			shares[i]++
			assigned++
		}
	}
	return shares
}

// Cap returns q_k, the maximum slots job k may take this instance under
// ε-fairness (§4.4): q_k = S* − Σ_{i≠k} (1−ε)·p_i. ε = 1 reverts to
// pure SRPT (no reservation for others); ε = 0 is complete fairness.
func Cap(eps float64, totalSlots int, shares []int, k int) int {
	if eps < 0 {
		eps = 0
	}
	if eps > 1 {
		eps = 1
	}
	reserved := 0.0
	for i, p := range shares {
		if i != k {
			reserved += (1 - eps) * float64(p)
		}
	}
	q := totalSlots - int(reserved+0.5)
	if q < 0 {
		q = 0
	}
	// Complete fairness still guarantees the job its own share.
	if q < shares[k] {
		q = shares[k]
	}
	return q
}

// Instance runs the policy half of one scheduling instance over jobs
// with free slots available in total: it orders the jobs (§4.1), gives
// each its fair share p_i (§4.4), and walks them in order, offering job
// k its ε-fair budget q_k of the slots still free. launch(k, budget)
// starts up to budget slots' worth of job k's tasks and returns how
// many it started. The walk ends when no slot is left. Fair forces
// ε = 0. Instance returns the order (indices into jobs) and the total
// launched.
func Instance(policy Policy, eps float64, free int, jobs []JobInfo, launch func(k, budget int) int) (order []int, launched int) {
	if policy == Fair {
		eps = 0
	}
	order = Order(policy, jobs)
	remTasks := make([]int, len(jobs))
	for i, j := range jobs {
		remTasks[i] = j.RemainingTasks
	}
	shares := FairShares(free, remTasks)
	for _, k := range order {
		if free <= 0 {
			break
		}
		budget := Cap(eps, free, shares, k)
		if budget <= 0 {
			continue
		}
		n := launch(k, budget)
		launched += n
		free -= n
	}
	return order, launched
}

// Allocate sizes one stage's launch: each site gets the smaller of its
// demand and its free slots (a site with no free slot gets none), and
// when that sums past the job's budget the allocation is scaled down
// proportionally (ScaleDemand, §4.4) rather than filled in site order.
func Allocate(demand, free []int, budget int) []int {
	alloc := make([]int, len(demand))
	total := 0
	for x, d := range demand {
		alloc[x] = max(0, min(d, free[x]))
		total += alloc[x]
	}
	if total > budget {
		return ScaleDemand(alloc, budget)
	}
	return alloc
}

// ScaleDemand scales the per-site slot demand d down proportionally so
// it sums to at most cap (§4.4: "We scale down job k's slot allocation
// by d_x·q_k/Σd_x if q_k < Σd_x"). It never returns negative counts and
// preserves the input when already within the cap.
func ScaleDemand(d []int, cap int) []int {
	total := 0
	for _, x := range d {
		total += x
	}
	out := make([]int, len(d))
	if total <= cap {
		copy(out, d)
		return out
	}
	if cap <= 0 {
		return out
	}
	assigned := 0
	type rem struct {
		idx  int
		frac float64
	}
	rems := make([]rem, len(d))
	for i, x := range d {
		exact := float64(x) * float64(cap) / float64(total)
		out[i] = int(exact)
		assigned += out[i]
		rems[i] = rem{i, exact - float64(out[i])}
	}
	sort.SliceStable(rems, func(a, b int) bool { return rems[a].frac > rems[b].frac })
	for k := 0; assigned < cap && k < len(rems); k++ {
		i := rems[k].idx
		if out[i] < d[i] {
			out[i]++
			assigned++
		}
	}
	return out
}
