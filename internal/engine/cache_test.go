package engine

import (
	"testing"
	"time"

	"tetrium/internal/place"
)

func testKey(words ...int) placeKey {
	b := newKeyBuilder(len(words))
	b.ints(words)
	return b.key()
}

// TestPlaceCacheNearIndex: the one LRU answers exact repeats with the
// placement and near repeats with the basis of the latest solve under
// the recurrence key, and the near answer lives and dies with the entry
// that carries it.
func TestPlaceCacheNearIndex(t *testing.T) {
	c := newPlaceCache(2)
	nearA, nearB := testKey(100), testKey(200)
	w1, w2, w3 := place.NewWarmState(), place.NewWarmState(), place.NewWarmState()
	res := func(i int) place.Decision { return place.Decision{Tasks: []int{i}} }

	if c.nearest(nearA) != nil {
		t.Fatal("empty cache answered a near lookup")
	}
	c.put(testKey(1), nearA, res(1), w1)
	if _, ok := c.get(testKey(2)); ok {
		t.Fatal("exact hit on a key never inserted")
	}
	if c.nearest(nearA) != w1 {
		t.Fatal("near hit did not survive an exact-key miss")
	}
	if c.nearest(nearB) != nil {
		t.Fatal("near hit under a recurrence key never solved")
	}

	// A newer solve under the same recurrence key takes over.
	c.put(testKey(2), nearA, res(2), w2)
	if c.nearest(nearA) != w2 {
		t.Fatal("near index not refreshed by the newer solve")
	}
	// Re-solving an exact key (two identical requests in one batch)
	// refreshes its entry in place: no second entry, newest basis.
	c.put(testKey(1), nearA, res(3), w3)
	if r, ok := c.get(testKey(1)); !ok || r.Tasks[0] != 3 || c.size != 2 || c.nearest(nearA) != w3 {
		t.Fatalf("re-put: result %v ok=%v size=%d nearest=%p (want w3 %p)", r, ok, c.size, c.nearest(nearA), w3)
	}

	// Eviction takes the near answer with its entry — even while an
	// older entry of the same recurrence survives: the next near repeat
	// solves cold and publishes again.
	c.get(testKey(2))                    // key 1, the near answer, is now the oldest
	c.put(testKey(3), nearB, res(4), w1) // evicts it
	if _, ok := c.get(testKey(1)); ok || c.nearest(nearA) != nil {
		t.Fatalf("evicted entry still answers: nearest=%p", c.nearest(nearA))
	}
	if _, ok := c.get(testKey(2)); !ok || c.nearest(nearB) != w1 {
		t.Fatal("eviction of one entry disturbed the others")
	}
	if len(c.nearIdx) != 1 {
		t.Fatalf("near index holds %d slots for 1 live recurrence", len(c.nearIdx))
	}

	// Two recurrence keys on one hash share a slot: the full encoding is
	// compared, so the loser misses instead of receiving a foreign basis.
	clash := placeKey{hash: nearB.hash, enc: []uint64{7}}
	if c.nearest(clash) != nil {
		t.Fatal("hash collision returned another recurrence's basis")
	}
}

// TestPlaceCachePutNonPositiveCapacity is the regression test for the
// eviction hang: put on a cache with capacity <= 0 used to spin forever
// (size > capacity stays true once the ring is empty, and evictOldest
// no-ops on an empty ring). The watchdog turns a regression into a test
// failure instead of a stuck suite. Nothing such a cache is handed may
// stay reachable through the near index either.
func TestPlaceCachePutNonPositiveCapacity(t *testing.T) {
	for _, capacity := range []int{-1, 0} {
		done := make(chan *placeCache)
		go func() {
			c := newPlaceCache(capacity)
			for i := 0; i < 3; i++ {
				c.put(testKey(i), testKey(i%2), place.Decision{Tasks: []int{i}}, place.NewWarmState())
			}
			done <- c
		}()
		select {
		case c := <-done:
			if c.size != 0 || len(c.nearIdx) != 0 || len(c.buckets) != 0 {
				t.Errorf("capacity %d: %d entries, %d near slots, %d buckets left", capacity, c.size, len(c.nearIdx), len(c.buckets))
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("placeCache.put hangs with capacity %d", capacity)
		}
	}
}
