// Package arena pools fully constructed simulation objects across the
// points of a sweep. Building a chip or server is expensive — dozens of
// RNG stream splits, sensor calibration draws, per-core state — and a
// sweep repeats it hundreds of times with only the identity (tag, seed,
// recorder shard) changing between points. An Arena keeps released
// objects keyed by their configuration *shape* (everything Reset cannot
// change), so a sweep point acquires a pooled object, rewinds it with its
// Reset method, and runs bit-identically to a freshly constructed one.
//
// Unlike sync.Pool, an Arena never drops objects under GC pressure
// asymmetrically between runs (which would make allocation counts
// scheduling-dependent) and is keyed: objects of different shapes — core
// counts, mesh topologies, ablation parameter overrides — never mix.
// Correctness never depends on a hit: a miss simply means the caller
// constructs fresh, which is also how the first point of every shape
// proceeds. Pools live and die with their process, so a pooled object
// never meets a binary with another struct layout and the keys are the
// plain shape keys.
package arena

import "sync"

// Arena is a keyed pool of reusable objects of type T. It is safe for
// concurrent use: parallel sweep workers acquire and release through one
// shared arena.
type Arena[T any] struct {
	mu    sync.Mutex
	pools map[string][]T
	hits  uint64
	miss  uint64
}

// New creates an empty arena.
func New[T any]() *Arena[T] {
	return &Arena[T]{pools: make(map[string][]T)}
}

// Get pops a pooled object for the given shape key. ok is false when the
// shape's pool is empty and the caller must construct fresh.
func (a *Arena[T]) Get(key string) (v T, ok bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	pool := a.pools[key]
	if n := len(pool) - 1; n >= 0 {
		v = pool[n]
		var zero T
		pool[n] = zero
		a.pools[key] = pool[:n]
		a.hits++
		return v, true
	}
	a.miss++
	var zero T
	return zero, false
}

// Put returns an object to the shape's pool. The caller must not retain
// references to it; the next Get under the same key hands it out for
// Reset and reuse.
func (a *Arena[T]) Put(key string, v T) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.pools[key] = append(a.pools[key], v)
}

// Stats reports hit and miss counts since construction, for tests and
// observability.
func (a *Arena[T]) Stats() (hits, misses uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.hits, a.miss
}

// Drain empties every pool and zeroes the hit/miss counters. Tests use it
// to force the next acquisition of every shape down the fresh-construction
// path.
func (a *Arena[T]) Drain() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.pools = make(map[string][]T)
	a.hits, a.miss = 0, 0
}

// Len returns the number of pooled objects under the given key.
func (a *Arena[T]) Len(key string) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.pools[key])
}
