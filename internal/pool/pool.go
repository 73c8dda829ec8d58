// Package pool recycles the simulator's large backing arrays between
// machines: a sweep builds and drops one machine per point, and arrays of the
// same geometry are interchangeable once their user has reset what it reads.
package pool

import "sync"

// Keyed is a sync.Pool per key — the geometry an array was made for. The zero
// value is ready to use. Whether a recycled value must be zeroed is its
// user's business: some are fully overwritten before they are read.
type Keyed[K comparable, T any] struct {
	pools sync.Map // K -> *sync.Pool
}

// Get returns a value released under key, if one is at hand.
func (p *Keyed[K, T]) Get(key K) (T, bool) {
	if sp, ok := p.pools.Load(key); ok {
		if v := sp.(*sync.Pool).Get(); v != nil {
			return v.(T), true
		}
	}
	var none T
	return none, false
}

// Put releases v for a later Get of the same key. v must not be used again.
func (p *Keyed[K, T]) Put(key K, v T) {
	sp, ok := p.pools.Load(key)
	if !ok {
		sp, _ = p.pools.LoadOrStore(key, &sync.Pool{})
	}
	sp.(*sync.Pool).Put(v)
}
