// Package cluster models a geo-distributed cluster: a set of sites, each
// with a number of compute slots and uplink/downlink WAN bandwidth, joined
// by a congestion-free core (the paper's §2.1 model). It also provides
// the capacity presets used by the paper's evaluation: the EC2 8-region
// and 30-instance deployments (§6.1), the 50-site trace-driven simulation
// setting, the OSP-like heterogeneity distributions of Fig. 2, and
// Zipf-skewed capacity generators for the §6.4 skew sweep.
package cluster

import (
	"fmt"
	"math"
	"math/rand"

	"tetrium/internal/units"
)

// SiteID indexes a site within a Cluster.
type SiteID int

// Site is one geo-distributed location: a datacenter or edge cluster.
type Site struct {
	Name   string
	Slots  int     // compute slots (equal-sized CPU+memory bundles, §7)
	UpBW   float64 // uplink bandwidth to the core, bytes/sec
	DownBW float64 // downlink bandwidth from the core, bytes/sec
}

func (s Site) String() string {
	return fmt.Sprintf("%s{slots=%d up=%.0fMB/s down=%.0fMB/s}",
		s.Name, s.Slots, s.UpBW/units.MBps, s.DownBW/units.MBps)
}

// Cluster is an immutable description of site capacities. Mutable state
// (free slots, in-flight transfers) lives in the simulator.
type Cluster struct {
	Sites []Site
}

// New builds a cluster from the given sites. It panics on invalid
// capacities, which indicate construction bugs rather than runtime
// conditions.
func New(sites []Site) *Cluster {
	for i, s := range sites {
		if s.Slots < 0 {
			panic(fmt.Sprintf("cluster: site %d has negative slots", i))
		}
		if s.UpBW < 0 || s.DownBW < 0 {
			panic(fmt.Sprintf("cluster: site %d has negative bandwidth", i))
		}
	}
	cp := make([]Site, len(sites))
	copy(cp, sites)
	return &Cluster{Sites: cp}
}

// N returns the number of sites.
func (c *Cluster) N() int { return len(c.Sites) }

// TotalSlots returns the sum of compute slots across all sites.
func (c *Cluster) TotalSlots() int {
	total := 0
	for _, s := range c.Sites {
		total += s.Slots
	}
	return total
}

// Slots returns the per-site slot counts.
func (c *Cluster) Slots() []int {
	out := make([]int, len(c.Sites))
	for i, s := range c.Sites {
		out[i] = s.Slots
	}
	return out
}

// UpBW returns the per-site uplink bandwidths (bytes/sec).
func (c *Cluster) UpBW() []float64 {
	out := make([]float64, len(c.Sites))
	for i, s := range c.Sites {
		out[i] = s.UpBW
	}
	return out
}

// DownBW returns the per-site downlink bandwidths (bytes/sec).
func (c *Cluster) DownBW() []float64 {
	out := make([]float64, len(c.Sites))
	for i, s := range c.Sites {
		out[i] = s.DownBW
	}
	return out
}

// MostPowerful returns the site with the most slots, breaking ties by
// higher downlink bandwidth (the aggregation target of the Centralized
// baseline).
func (c *Cluster) MostPowerful() SiteID {
	best := 0
	for i, s := range c.Sites {
		b := c.Sites[best]
		if s.Slots > b.Slots || (s.Slots == b.Slots && s.DownBW > b.DownBW) {
			best = i
		}
	}
	return SiteID(best)
}

// PaperExample returns the exact 3-site setup of the paper's Fig. 4:
// slots {40, 10, 20}, uplinks {5, 1, 2} GB/s, downlinks {5, 1, 5} GB/s.
func PaperExample() *Cluster {
	return New([]Site{
		{Name: "site-1", Slots: 40, UpBW: 5 * units.GBps, DownBW: 5 * units.GBps},
		{Name: "site-2", Slots: 10, UpBW: 1 * units.GBps, DownBW: 1 * units.GBps},
		{Name: "site-3", Slots: 20, UpBW: 2 * units.GBps, DownBW: 5 * units.GBps},
	})
}

// EC2EightRegions mirrors the paper's EC2 deployment (§6.1): one instance
// per region across 8 regions, slot counts between 4 (c4.xlarge) and 16
// (c4.4xlarge), inter-site bandwidth 100 Mbps–1 Gbps. Capacities are
// fixed (not random) so results are reproducible; the spread matches the
// published ranges.
func EC2EightRegions() *Cluster {
	mk := func(name string, slots int, bwMbps float64) Site {
		return Site{Name: name, Slots: slots, UpBW: bwMbps * units.Mbps, DownBW: bwMbps * units.Mbps}
	}
	return New([]Site{
		mk("oregon", 16, 1000),
		mk("virginia", 16, 800),
		mk("sao-paulo", 4, 100),
		mk("frankfurt", 8, 500),
		mk("ireland", 8, 600),
		mk("tokyo", 8, 400),
		mk("sydney", 4, 150),
		mk("singapore", 4, 200),
	})
}

// EC2ThirtySites mimics the paper's 30-instance deployment within one
// region, keeping the same heterogeneity ranges as the 8-region setup.
func EC2ThirtySites(seed int64) *Cluster {
	rng := rand.New(rand.NewSource(seed))
	sites := make([]Site, 30)
	slotChoices := []int{4, 8, 8, 16} // skew toward mid-size instances
	for i := range sites {
		slots := slotChoices[rng.Intn(len(slotChoices))]
		bw := (100 + rng.Float64()*900) * units.Mbps
		sites[i] = Site{Name: fmt.Sprintf("inst-%02d", i), Slots: slots, UpBW: bw, DownBW: bw}
	}
	return New(sites)
}

// Sim50 builds the paper's 50-site simulation setting (§6.1): per-site
// slots from 25 to 5000 ("a mix of powerful datacenters and small edge
// clusters") and bandwidth from 100 Mbps to 2 Gbps. A log-uniform slot
// distribution produces the stated mix: a few large datacenters and many
// small edges.
func Sim50(seed int64) *Cluster {
	return SimN(50, seed)
}

// SimN is Sim50 generalized to n sites. Bandwidth correlates with site
// size — large datacenters have fat pipes, edge clusters thin ones — but
// with a compressed spread, matching Fig. 2's observation that compute
// varies ~200× while bandwidth varies only ~18×: bw ∝ slots^0.55 with
// lognormal jitter.
func SimN(n int, seed int64) *Cluster {
	return SimNRange(n, seed, 25, 5000)
}

// SimNRange is SimN with an explicit per-site slot range. Experiments
// that replay traces much smaller than the paper's production workload
// shrink the slot range proportionally so the cluster stays in the
// paper's contended, multi-wave regime (§2.2); the 200× heterogeneity
// and the bandwidth correlation are preserved.
func SimNRange(n int, seed int64, minSlots, maxSlots int) *Cluster {
	rng := rand.New(rand.NewSource(seed))
	sites := make([]Site, n)
	for i := range sites {
		lo, hi := math.Log(float64(minSlots)), math.Log(float64(maxSlots))
		slots := int(math.Exp(lo + rng.Float64()*(hi-lo)))
		if slots < 1 {
			slots = 1
		}
		bw := func() float64 {
			scale := math.Pow(float64(slots)/float64(minSlots), math.Log(18)/math.Log(200))
			b := 100 * units.Mbps * scale * math.Exp(0.3*rng.NormFloat64())
			return math.Min(math.Max(b, 100*units.Mbps), 2000*units.Mbps)
		}
		sites[i] = Site{Name: fmt.Sprintf("site-%02d", i), Slots: slots, UpBW: bw(), DownBW: bw()}
	}
	return New(sites)
}

// OSPLike generates n sites whose compute capacities span roughly two
// orders of magnitude and whose bandwidths span roughly 18×, reproducing
// the heterogeneity CDFs of the paper's Fig. 2. Capacities are drawn
// log-uniformly, which yields the near-straight-line CDF (on normalized
// axes) that the figure shows.
func OSPLike(n int, seed int64) *Cluster {
	rng := rand.New(rand.NewSource(seed))
	sites := make([]Site, n)
	for i := range sites {
		slots := int(math.Round(math.Exp(rng.Float64() * math.Log(200))))
		if slots < 1 {
			slots = 1
		}
		bwScale := math.Exp(rng.Float64() * math.Log(18))
		bw := 100 * units.Mbps * bwScale
		sites[i] = Site{Name: fmt.Sprintf("osp-%03d", i), Slots: slots, UpBW: bw, DownBW: bw}
	}
	return New(sites)
}

// Zipf builds an n-site cluster whose slots and bandwidths follow Zipf
// distributions with exponents eSlots and eBW, used by the paper's §6.4
// resource-skew sweep ("setting it based on Zipf distribution: the higher
// the exponent e value, the more skewed the resources to a few sites").
// Total slots and total bandwidth are held constant across exponents so
// the sweep varies skew, not aggregate capacity.
func Zipf(n int, eSlots, eBW float64, totalSlots int, totalBW float64) *Cluster {
	slotW := zipfWeights(n, eSlots)
	bwW := zipfWeights(n, eBW)
	sites := make([]Site, n)
	assigned := 0
	for i := range sites {
		s := int(math.Round(slotW[i] * float64(totalSlots)))
		if s < 1 {
			s = 1
		}
		assigned += s
		bw := bwW[i] * totalBW
		sites[i] = Site{Name: fmt.Sprintf("zipf-%02d", i), Slots: s, UpBW: bw, DownBW: bw}
	}
	// Trim or pad the largest site so totals match exactly.
	diff := totalSlots - assigned
	if diff != 0 {
		big := 0
		for i := range sites {
			if sites[i].Slots > sites[big].Slots {
				big = i
			}
		}
		sites[big].Slots += diff
		if sites[big].Slots < 1 {
			sites[big].Slots = 1
		}
	}
	return New(sites)
}

// zipfWeights returns n weights proportional to 1/rank^e, normalized to
// sum to 1. e = 0 yields a uniform distribution.
func zipfWeights(n int, e float64) []float64 {
	w := make([]float64, n)
	sum := 0.0
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), e)
		sum += w[i]
	}
	for i := range w {
		w[i] /= sum
	}
	return w
}

// HeterogeneityStats summarizes the capacity spread of a cluster: each
// value list is normalized to its minimum, reproducing the axes of the
// paper's Fig. 2.
type HeterogeneityStats struct {
	NormalizedSlots []float64 // sorted ascending, min-normalized
	NormalizedBW    []float64 // sorted ascending, min-normalized (uplink)
}

// Heterogeneity computes Fig. 2-style normalized capacity distributions.
func (c *Cluster) Heterogeneity() HeterogeneityStats {
	slots := make([]float64, 0, len(c.Sites))
	bw := make([]float64, 0, len(c.Sites))
	minS, minB := math.Inf(1), math.Inf(1)
	for _, s := range c.Sites {
		slots = append(slots, float64(s.Slots))
		bw = append(bw, s.UpBW)
		minS = math.Min(minS, float64(s.Slots))
		minB = math.Min(minB, s.UpBW)
	}
	for i := range slots {
		slots[i] /= minS
		bw[i] /= minB
	}
	sortFloats(slots)
	sortFloats(bw)
	return HeterogeneityStats{NormalizedSlots: slots, NormalizedBW: bw}
}

func sortFloats(v []float64) {
	// Insertion sort: n is small (hundreds) and this avoids an import
	// cycle risk with helper packages.
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}

// PresetNames lists the cluster presets accepted by Preset, in the order
// CLIs document them.
func PresetNames() []string {
	return []string{"ec2-8", "ec2-30", "sim-50", "paper", "osp"}
}

// Preset builds a deployment preset by CLI name — the single parser
// shared by tetrium-sim, tetrium-trace, and tetrium-serve. The seed only
// affects the randomized presets (ec2-30, sim-50, osp).
func Preset(name string, seed int64) (*Cluster, error) {
	switch name {
	case "ec2-8":
		return EC2EightRegions(), nil
	case "ec2-30":
		return EC2ThirtySites(seed), nil
	case "sim-50":
		return Sim50(seed), nil
	case "paper":
		return PaperExample(), nil
	case "osp":
		return OSPLike(100, seed), nil
	default:
		return nil, fmt.Errorf("unknown cluster %q (want one of %v)", name, PresetNames())
	}
}
