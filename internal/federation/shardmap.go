package federation

import "tetrium/internal/cluster"

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// route is the preferred shard in [0, n) for a job named name, the
// router's seq-th submission: FNV-1a over the name mixed with the
// sequence, modulo the shard count. With distinct names the partition
// is sticky per name; identical or empty names still spread via the
// sequence. The router treats the answer as a preference, not an
// obligation: a full shard spills the job onward, and only when every
// shard rejects does the submission fail.
func route(name string, seq uint64, n int) int {
	h := uint64(fnvOffset64)
	mix := func(b byte) {
		h ^= uint64(b)
		h *= fnvPrime64
	}
	for i := 0; i < len(name); i++ {
		mix(name[i])
	}
	for i := 0; i < 8; i++ {
		mix(byte(seq >> (8 * i)))
	}
	// FNV-1a's final multiply preserves the low bits' parity structure,
	// which biases h mod small powers of two (mod 2 it is constant for
	// same-length inputs). A finalizer avalanche spreads every input bit
	// into the low bits before the modulo.
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return int(h % uint64(n))
}

// SliceCluster carves shard i's shared-nothing capacity slice out of
// the fleet cluster: every site keeps its identity (jobs reference
// global site indices unchanged) but owns 1/N of the slots — remainders
// go to the lowest-numbered shards — and 1/N of each WAN link. The
// slices sum exactly back to the fleet for slots and to within float
// rounding for bandwidth, so the aggregated /v1/cluster view is
// conservative.
func SliceCluster(cl *cluster.Cluster, shards, shard int) *cluster.Cluster {
	sites := make([]cluster.Site, cl.N())
	for x, s := range cl.Sites {
		sites[x] = cluster.Site{
			Name:   s.Name,
			Slots:  slotShare(s.Slots, shards, shard),
			UpBW:   s.UpBW / float64(shards),
			DownBW: s.DownBW / float64(shards),
		}
	}
	return cluster.New(sites)
}

// slotShare splits total slots across shards with remainders assigned
// to the lowest shard indices: Σ_i slotShare(total, n, i) == total.
func slotShare(total, shards, shard int) int {
	share := total / shards
	if shard < total%shards {
		share++
	}
	return share
}
