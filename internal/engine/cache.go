package engine

import (
	"math"

	"tetrium/internal/place"
)

// The placement memo cache short-circuits LP solves for repeated
// (Resources, request) pairs — the loadgen steady state where many
// submitted jobs share a stage shape and the cluster capacities are
// stable between §4.2 updates. Keys canonically encode every input the
// solve depends on (per-site capacities and bandwidths in site order,
// the stage kind, the per-site data vector, and the scalar request
// fields), so two requests collide only when the LP they would build is
// identical. The 64-bit FNV-1a hash picks the bucket; lookups compare
// the full encoded key word-for-word, so a hash collision can never
// return the wrong placement.
//
// The same entries answer a near repeat — a recurring query over fresh
// data, or a re-solve after capacities moved. Each entry also carries
// its solve's recurrence key (recurrenceKey: the exact key with every
// magnitude erased) and simplex basis, and the near index maps a
// recurrence key to the entry solved most recently under it, so a
// request that misses exactly can still enter phase 2 from that basis.
//
// The cache is owned by the event loop (no locking) and is LRU-bounded
// by Config.PlaceCacheSize; evicting an entry drops its near index slot
// with it. Fallback placements (placer errors) are never inserted: they
// reflect a transient failure, not a reusable decision.

// placeKey is the canonical signature of one placement solve.
type placeKey struct {
	hash uint64
	enc  []uint64
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// keyBuilder accumulates the canonical word encoding of a solve's
// inputs and its running FNV-1a hash.
type keyBuilder struct {
	enc  []uint64
	hash uint64
}

func newKeyBuilder(capHint int) *keyBuilder {
	return &keyBuilder{enc: make([]uint64, 0, capHint), hash: fnvOffset64}
}

func (b *keyBuilder) word(w uint64) {
	b.enc = append(b.enc, w)
	h := b.hash
	for i := 0; i < 8; i++ {
		h ^= w & 0xff
		h *= fnvPrime64
		w >>= 8
	}
	b.hash = h
}

func (b *keyBuilder) int(v int)       { b.word(uint64(v)) }
func (b *keyBuilder) float(v float64) { b.word(math.Float64bits(v)) }

func (b *keyBuilder) bit(v bool) {
	if v {
		b.word(1)
	} else {
		b.word(0)
	}
}

func (b *keyBuilder) floats(vs []float64) {
	for _, v := range vs {
		b.float(v)
	}
}

func (b *keyBuilder) ints(vs []int) {
	for _, v := range vs {
		b.int(v)
	}
}

func (b *keyBuilder) key() placeKey { return placeKey{hash: b.hash, enc: b.enc} }

func sameEnc(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// cacheEntry is one memoized placement on the LRU ring.
type cacheEntry struct {
	key        placeKey
	res        place.Decision
	near       placeKey         // recurrence key of the solve
	warm       *place.WarmState // its basis; may be shared with the solved stage
	prev, next *cacheEntry
}

// placeCache is a bounded LRU map from placement signatures to results.
type placeCache struct {
	capacity int
	buckets  map[uint64][]*cacheEntry
	// nearIdx maps a recurrence key's hash to the entry solved most
	// recently under it. One slot per hash: a colliding key overwrites,
	// and nearest compares the full encoding, so a collision costs a
	// cold solve, never a basis for the wrong recurrence.
	nearIdx map[uint64]*cacheEntry
	ring    *cacheEntry // sentinel: ring.next = most recent
	size    int
}

func newPlaceCache(capacity int) *placeCache {
	s := &cacheEntry{}
	s.prev, s.next = s, s
	return &placeCache{
		capacity: capacity,
		buckets:  make(map[uint64][]*cacheEntry),
		nearIdx:  make(map[uint64]*cacheEntry),
		ring:     s,
	}
}

func (c *placeCache) unlink(e *cacheEntry) {
	e.prev.next = e.next
	e.next.prev = e.prev
}

func (c *placeCache) pushFront(e *cacheEntry) {
	e.next = c.ring.next
	e.prev = c.ring
	c.ring.next.prev = e
	c.ring.next = e
}

func (c *placeCache) lookup(k placeKey) *cacheEntry {
	for _, e := range c.buckets[k.hash] {
		if sameEnc(e.key.enc, k.enc) {
			return e
		}
	}
	return nil
}

// get returns the memoized result for k, refreshing its recency.
func (c *placeCache) get(k placeKey) (place.Decision, bool) {
	e := c.lookup(k)
	if e == nil {
		return place.Decision{}, false
	}
	c.unlink(e)
	c.pushFront(e)
	return e.res, true
}

// nearest returns the basis of the most recent solve under the
// recurrence key near, nil when none is cached. The caller clones it.
func (c *placeCache) nearest(near placeKey) *place.WarmState {
	if e := c.nearIdx[near.hash]; e != nil && sameEnc(e.near.enc, near.enc) {
		return e.warm
	}
	return nil
}

// put inserts (or refreshes) k's result and makes its entry the near
// index's answer for the recurrence key near, evicting the least
// recently used entry beyond capacity.
func (c *placeCache) put(k, near placeKey, r place.Decision, warm *place.WarmState) {
	e := c.lookup(k)
	if e != nil {
		c.unlink(e)
	} else {
		e = &cacheEntry{key: k}
		c.buckets[k.hash] = append(c.buckets[k.hash], e)
		c.size++
	}
	// An entry keeps what commit reads, not the placement's matrices.
	r.Map, r.Reduce = place.MapPlacement{}, place.ReducePlacement{}
	e.res, e.near, e.warm = r, near, warm
	c.nearIdx[near.hash] = e
	c.pushFront(e)
	for c.size > c.capacity {
		// evictOldest can run dry before size catches up with a
		// non-positive capacity (the ring holds at least the entry just
		// inserted, but size > 0 > capacity stays true forever once the
		// ring is empty) — break instead of spinning.
		if !c.evictOldest() {
			break
		}
	}
}

// evictOldest removes the least recently used entry, reporting false
// when the ring is already empty.
func (c *placeCache) evictOldest() bool {
	old := c.ring.prev
	if old == c.ring {
		return false
	}
	c.unlink(old)
	c.size--
	if c.nearIdx[old.near.hash] == old {
		delete(c.nearIdx, old.near.hash)
	}
	bucket := c.buckets[old.key.hash]
	for i, e := range bucket {
		if e == old {
			bucket[i] = bucket[len(bucket)-1]
			bucket = bucket[:len(bucket)-1]
			break
		}
	}
	if len(bucket) == 0 {
		delete(c.buckets, old.key.hash)
	} else {
		c.buckets[old.key.hash] = bucket
	}
	return true
}
