package service

import (
	"container/list"
	"fmt"
	"sync"

	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/prob"
)

// instanceCache is the LRU instance cache: built bipartite CSRs
// keyed by (generator, params, seed), shared read-only by every job that
// sweeps the same instance. Builds are deduplicated singleflight-style —
// concurrent jobs missing on the same key wait for one build instead of
// racing their own — and failed builds are never cached, so a transient
// failure does not poison the key.
type instanceCache struct {
	mu  sync.Mutex
	cap int
	ll  *list.List // front = most recent; values are *cacheEntry
	m   map[string]*cacheEntry

	hits, misses int64
}

type cacheEntry struct {
	key  string
	elem *list.Element
	// ready is closed when the build finished; b/err are immutable after.
	ready chan struct{}
	b     *graph.Bipartite
	err   error
}

func newInstanceCache(capacity int) *instanceCache {
	if capacity <= 0 {
		capacity = 64
	}
	return &instanceCache{cap: capacity, ll: list.New(), m: make(map[string]*cacheEntry)}
}

// cacheKey identifies one built instance. Seed-independent generators fold
// every seed onto one entry, which is what lets a whole multi-seed sweep —
// and every job after it — share a single CSR.
func cacheKey(spec SweepSpec, seed uint64) string {
	if experiments.FixedInstance(spec.Gen, "") {
		seed = 0
	}
	return fmt.Sprintf("%s/%d/%d/%d/%d", spec.Gen, spec.NU, spec.NV, spec.D, seed)
}

// get returns the cached instance for key, building it (once, even under
// concurrent misses) when absent. The returned instance is shared, which is
// safe because graphs are immutable once built.
func (c *instanceCache) get(key string, build func() (*graph.Bipartite, error)) (*graph.Bipartite, error) {
	c.mu.Lock()
	if e, ok := c.m[key]; ok {
		c.hits++
		c.ll.MoveToFront(e.elem)
		c.mu.Unlock()
		<-e.ready
		// A failed build removed itself from the map before closing ready,
		// but a waiter that arrived earlier still observes the error here.
		return e.b, e.err
	}
	c.misses++
	e := &cacheEntry{key: key, ready: make(chan struct{})}
	e.elem = c.ll.PushFront(e)
	c.m[key] = e
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		ev := oldest.Value.(*cacheEntry)
		c.ll.Remove(oldest)
		delete(c.m, ev.key)
	}
	c.mu.Unlock()

	b, err := build()
	e.b, e.err = b, err
	if err != nil {
		c.mu.Lock()
		// Only drop the entry if it is still ours — it may have been evicted
		// (and the key even rebuilt) while we were building.
		if cur, ok := c.m[key]; ok && cur == e {
			c.ll.Remove(e.elem)
			delete(c.m, key)
		}
		c.mu.Unlock()
	}
	close(e.ready)
	return b, err
}

// stats returns the hit/miss counters and current size.
func (c *instanceCache) stats() (hits, misses int64, size int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.ll.Len()
}

// buildFor returns the cache-backed builder for one (spec, seed) instance.
func (c *instanceCache) buildFor(spec SweepSpec, seed uint64) func() (*graph.Bipartite, error) {
	return func() (*graph.Bipartite, error) {
		return experiments.BuildInstance(spec.Gen, "", spec.NU, spec.NV, spec.D, prob.NewSource(seed))
	}
}
