// Package pool recycles the simulator's large backing arrays between
// machines: a sweep builds and drops one machine per point, and arrays of the
// same geometry are interchangeable once their user has reset what it reads.
package pool

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// keepCollections is how many garbage collections a key's free list may go
// without a Get or a Put before its arrays are let go. The clock is fast under
// load: with the cache arenas outside the Go heap, a busy spbd's heap no
// longer holds its machines, its goal is a few MB to a few tens of MB, and it
// collects one to three times a second, so eight collections are three to
// eight seconds. A worker takes its machine's arrays back at its next run,
// milliseconds later, so they are still built once per concurrently running
// machine, however long runs go without overlapping. The runtime
// forces a collection every two minutes on an idle process, so a daemon nobody
// talks to — or the arrays of a one-off geometry (cores: 64 is 38 MB) — hands
// them back within a quarter of an hour. The standard library's pool keeps a
// value for two cycles, which lost a loaded spbd a machine's 10 MB several
// times a minute.
const keepCollections = 8

var (
	epoch    atomic.Uint64 // collections finished since the first Keyed was used
	trimMu   sync.Mutex
	trimmers []func(now uint64) // one per Keyed in use; the first arms the sentinel
)

// sentinel is an object nothing refers to: each collection finalizes the one
// at hand, which counts the collection and ages every free list. It holds a
// pointer so that the allocator does not pack it in with live tiny objects.
type sentinel struct{ _ *sentinel }

func arm() {
	runtime.SetFinalizer(new(sentinel), func(*sentinel) {
		arm() // first: whoever sees the new epoch finds the next sentinel armed
		now := epoch.Add(1)
		trimMu.Lock()
		all := trimmers // append-only: a trim takes its pool's lock, which registering holds
		trimMu.Unlock()
		for _, trim := range all {
			trim(now)
		}
	})
}

// Keyed is a LIFO free list per key — the geometry an array was made for —
// that holds its values by strong reference until the key has gone
// keepCollections collections unused. It is the list that ages, not the
// value: serialized runs take the top of a list over and over, and the value
// beneath is what the next overlap needs. The zero value is ready to use; a
// Keyed in use is registered for ageing for good, so it is a package-level
// variable. Whether a recycled value must be zeroed is its user's business:
// some are fully overwritten before they are read.
type Keyed[K comparable, T any] struct {
	mu      sync.Mutex
	shelves map[K]*shelf[T]
}

type shelf[T any] struct {
	free   []T    // oldest Put first
	used   uint64 // epoch of the last Get or Put
	misses uint64
}

// shelf returns key's list, registering the pool for ageing on first use. The
// caller holds p.mu.
func (p *Keyed[K, T]) shelf(key K) *shelf[T] {
	if p.shelves == nil {
		p.shelves = make(map[K]*shelf[T])
		trimMu.Lock()
		if trimmers == nil {
			arm()
		}
		trimmers = append(trimmers, p.trim)
		trimMu.Unlock()
	}
	s := p.shelves[key]
	if s == nil {
		s = new(shelf[T])
		p.shelves[key] = s
	}
	return s
}

// Get returns the value most recently released under key, if one is at hand.
func (p *Keyed[K, T]) Get(key K) (T, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.shelf(key)
	s.used = epoch.Load()
	var none T
	n := len(s.free) - 1
	if n < 0 {
		s.misses++
		return none, false
	}
	v := s.free[n]
	s.free[n] = none
	s.free = s.free[:n]
	return v, true
}

// Put releases v for a later Get of the same key. v must not be used again.
func (p *Keyed[K, T]) Put(key K, v T) {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.shelf(key)
	s.used = epoch.Load()
	s.free = append(s.free, v)
}

// Misses reports how many Gets of key found nothing: the values its users
// had to build.
func (p *Keyed[K, T]) Misses(key K) uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.shelf(key).misses
}

// trim empties every list whose key was last used keepCollections or more
// epochs before now.
func (p *Keyed[K, T]) trim(now uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, s := range p.shelves {
		if now-s.used >= keepCollections {
			s.free = nil
		}
	}
}
