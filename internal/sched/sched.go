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

import (
	"cmp"
	"slices"
)

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
	return orderInto(make([]int, len(jobs)), policy, jobs)
}

// orderInto is Order writing into idx (len(jobs) long).
func orderInto(idx []int, policy Policy, jobs []JobInfo) []int {
	for i := range idx {
		idx[i] = i
	}
	switch policy {
	case SRPT:
		slices.SortStableFunc(idx, func(a, b int) int {
			ja, jb := &jobs[a], &jobs[b]
			if ja.RemainingStages != jb.RemainingStages {
				return cmp.Compare(ja.RemainingStages, jb.RemainingStages)
			}
			if ja.EstStageTime != jb.EstStageTime {
				return less(ja.EstStageTime < jb.EstStageTime)
			}
			return cmp.Compare(ja.ID, jb.ID)
		})
	default: // FIFO and Fair order by arrival
		slices.SortStableFunc(idx, func(a, b int) int {
			return cmp.Compare(jobs[a].ID, jobs[b].ID)
		})
	}
	return idx
}

// less turns a "before" verdict into a comparison result. The stable
// sorts only ask whether a comparison is negative, so this keeps a
// comparator that is not a total order (a NaN estimate) deciding
// exactly as its less form does.
func less(before bool) int {
	if before {
		return -1
	}
	return 1
}

// remainder is FairShares' largest-remainder bookkeeping.
type remainder struct {
	idx  int
	frac float64
}

// byRemainder sorts remainders largest first.
func byRemainder(a, b remainder) int { return less(a.frac > b.frac) }

// FairShares returns p_i = S*·f_i/Σf_i, the slot reservation of each job
// under proportional fairness (§4.4), rounded by largest remainder to
// sum exactly to totalSlots (or fewer if there are fewer tasks).
func FairShares(totalSlots int, remTasks []int) []int {
	return fairSharesInto(make([]int, len(remTasks)), make([]remainder, len(remTasks)), totalSlots, remTasks)
}

// fairSharesInto is FairShares writing into shares, with rems as
// scratch; both len(remTasks) long.
func fairSharesInto(shares []int, rems []remainder, totalSlots int, remTasks []int) []int {
	clear(shares)
	totalTasks := 0
	for _, f := range remTasks {
		totalTasks += f
	}
	if totalTasks == 0 || totalSlots <= 0 {
		return shares
	}
	assigned := 0
	for i, f := range remTasks {
		exact := float64(totalSlots) * float64(f) / float64(totalTasks)
		shares[i] = int(exact)
		// A job never needs more slots than it has tasks.
		if shares[i] > f {
			shares[i] = f
		}
		assigned += shares[i]
		rems[i] = remainder{i, exact - float64(shares[i])}
	}
	slices.SortStableFunc(rems, byRemainder)
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

// Scratch is the memory of one scheduling instance: the order, the
// jobs' remaining tasks and their fair shares. A caller that keeps one
// across instances schedules without allocating. The zero value is
// ready to use; a Scratch must not be shared between concurrent
// instances.
type Scratch struct {
	order, remTasks, shares []int
	rems                    []remainder
}

// Instance runs the policy half of one scheduling instance over jobs
// with free slots available in total: it orders the jobs (§4.1), gives
// each its fair share p_i (§4.4), and walks them in order, offering job
// k its ε-fair budget q_k of the slots still free. launch(k, budget)
// starts up to budget slots' worth of job k's tasks and returns how
// many it started. The walk ends when no slot is left. Fair forces
// ε = 0. Instance returns the order (indices into jobs, valid until
// the next Instance on s) and the total launched.
func (s *Scratch) Instance(policy Policy, eps float64, free int, jobs []JobInfo, launch func(k, budget int) int) (order []int, launched int) {
	if policy == Fair {
		eps = 0
	}
	n := len(jobs)
	s.order = orderInto(slices.Grow(s.order[:0], n)[:n], policy, jobs)
	s.remTasks = slices.Grow(s.remTasks[:0], n)[:n]
	for i, j := range jobs {
		s.remTasks[i] = j.RemainingTasks
	}
	s.rems = slices.Grow(s.rems[:0], n)[:n]
	s.shares = fairSharesInto(slices.Grow(s.shares[:0], n)[:n], s.rems, free, s.remTasks)
	for _, k := range s.order {
		if free <= 0 {
			break
		}
		budget := Cap(eps, free, s.shares, k)
		if budget <= 0 {
			continue
		}
		n := launch(k, budget)
		launched += n
		free -= n
	}
	return s.order, launched
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
	rems := make([]remainder, len(d))
	for i, x := range d {
		exact := float64(x) * float64(cap) / float64(total)
		out[i] = int(exact)
		assigned += out[i]
		rems[i] = remainder{i, exact - float64(out[i])}
	}
	slices.SortStableFunc(rems, byRemainder)
	for k := 0; assigned < cap && k < len(rems); k++ {
		i := rems[k].idx
		if out[i] < d[i] {
			out[i]++
			assigned++
		}
	}
	return out
}
