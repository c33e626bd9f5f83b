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
	"math"
	"math/bits"
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

// before is the order a stable sort by byRemainder leaves entries that
// start in index order: larger remainder first, then lower index.
func (r remainder) before(o remainder) bool {
	return r.frac > o.frac || (r.frac == o.frac && r.idx < o.idx)
}

// selectFirst reorders rems so that its first k entries are the k
// first under before, in no particular order (quickselect, in place).
func selectFirst(rems []remainder, k int) {
	lo, hi := 0, len(rems)
	for lo < k && k < hi {
		m := lo + (hi-lo)/2
		p := rems[m]
		rems[m], rems[hi-1] = rems[hi-1], rems[m]
		s := lo
		for i := lo; i < hi-1; i++ {
			if rems[i].before(p) {
				rems[i], rems[s] = rems[s], rems[i]
				s++
			}
		}
		rems[s], rems[hi-1] = rems[hi-1], rems[s]
		// rems[lo:s] come before p, now at rems[s], and rems[s+1:hi] after.
		if k <= s {
			hi = s
		} else {
			lo = s + 1
		}
	}
}

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
	assigned, open := 0, 0
	for i, f := range remTasks {
		exact := float64(totalSlots) * float64(f) / float64(totalTasks)
		shares[i] = int(exact)
		// A job never needs more slots than it has tasks.
		if shares[i] > f {
			shares[i] = f
		}
		if shares[i] < f {
			open++
		}
		assigned += shares[i]
		rems[i] = remainder{i, exact - float64(shares[i])}
	}
	// The walk below gives each job under its task count one leftover
	// slot per round, in the stable remainder order. While those jobs
	// are at least as many as the leftover, the walk ends inside its
	// first round: the leftover goes to the first left of them in that
	// order, which a selection finds without sorting. Otherwise the walk
	// wraps around, and runs over the sorted order.
	if left := totalSlots - assigned; left <= open {
		eligible := rems[:0]
		for _, r := range rems {
			if shares[r.idx] < remTasks[r.idx] {
				eligible = append(eligible, r)
			}
		}
		selectFirst(eligible, left)
		for _, r := range eligible[:left] {
			shares[r.idx]++
		}
		return shares
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
	eps = clampEps(eps)
	reserved := 0.0
	for i, p := range shares {
		if i != k {
			reserved += (1 - eps) * float64(p)
		}
	}
	return capOf(totalSlots, reserved, shares[k])
}

// capOf is Cap's q_k given the reservation for the other jobs. Complete
// fairness still guarantees the job its own share.
func capOf(totalSlots int, reserved float64, own int) int {
	return max(totalSlots-int(reserved+0.5), 0, own)
}

func clampEps(eps float64) float64 { return min(max(eps, 0), 1) }

// reservation answers Cap for every job of one instance. Cap sums
// (1−ε)·p_i over i ≠ k in index order, in floating point, so a total
// taken once minus job k's term rounds differently: at ε = 0.9, shares
// [8 5 1 1 3] and 18 slots, Cap gives job 4 16 slots and the subtraction
// 17. When 1−ε = m·2^e with m·Σ|p_i| < 2^53, though, every term and
// partial sum of Cap's loop is exact and equals (1−ε)·(Σp_i − p_k), so
// the reservation is summed once and each cap costs O(1): ε ∈ {0, ¼,
// ½, ¾, 1} and any other short binary fraction. The rest (ε = 0.1,
// whose 1−ε has a 53-bit m) run Cap's loop per job.
type reservation struct {
	eps   float64
	sum   int // Σ p_i
	exact bool
}

func newReservation(eps float64, shares []int) reservation {
	r := reservation{eps: clampEps(eps)}
	abs := 0
	for _, p := range shares {
		r.sum += p
		abs += max(p, -p)
	}
	r.exact = exactMultiples(1-r.eps, abs)
	return r
}

// cap is Cap(r.eps, totalSlots, shares, k) for the shares r was made of.
func (r reservation) cap(totalSlots int, shares []int, k int) int {
	if !r.exact {
		return Cap(r.eps, totalSlots, shares, k)
	}
	return capOf(totalSlots, (1-r.eps)*float64(r.sum-shares[k]), shares[k])
}

// exactMultiples reports whether c·p is a float64 without rounding for
// every integer p with |p| ≤ bound: c = m·2^e with m odd and
// m·bound < 2^53. Sums of such products whose |p| add up to at most
// bound are exact too, being multiples of 2^e below 2^53·2^e.
func exactMultiples(c float64, bound int) bool {
	switch {
	case c == 0:
		return true
	case math.IsNaN(c):
		return false // what a NaN ε caps is Cap's loop to say
	}
	frac, _ := math.Frexp(c)
	m := uint64(frac * (1 << 53))
	m >>= bits.TrailingZeros64(m)
	return uint64(bound) <= (1<<53-1)/m
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
	reserve := newReservation(eps, s.shares)
	for _, k := range s.order {
		if free <= 0 {
			break
		}
		budget := reserve.cap(free, s.shares, k)
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
