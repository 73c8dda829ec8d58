package sim

import (
	"context"
	"sync"
	"sync/atomic"
)

// keyed is a bounded table of values built once per key (DESIGN.md §7). The
// Runner keeps two: results by normalized RunSpec and warm-start groups by
// warmKey. The first caller for a key builds its value; later callers wait for
// that build, each under its own ctx. A failed build is held by nobody: its
// waiters see its error and the next caller builds again. Past max keys, the
// key learned longest ago is forgotten.
type keyed[K comparable, V any] struct {
	mu       sync.Mutex
	held     map[K]V
	order    []K // the keys of held in the order they were learned
	building map[K]*building[V]
	max      int // a field so a test can shrink it

	// waits counts callers that found their key's build in flight, counted as
	// each wait begins, so a caller still blocked is already counted.
	waits atomic.Uint64
}

// building is one build in flight that other callers of its key wait on.
type building[V any] struct {
	done chan struct{}
	v    V
	err  error
}

func newKeyed[K comparable, V any](max int) *keyed[K, V] {
	return &keyed[K, V]{held: make(map[K]V), building: make(map[K]*building[V]), max: max}
}

// lookup returns the value held for k, building nothing.
func (t *keyed[K, V]) lookup(k K) (V, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	v, ok := t.held[k]
	return v, ok
}

// put holds v for k, as if a build had returned it.
func (t *keyed[K, V]) put(k K, v V) {
	t.mu.Lock()
	t.hold(k, v)
	t.mu.Unlock()
}

// hold holds v for k and forgets the keys learned longest ago until at most
// max are held. The caller holds t.mu.
func (t *keyed[K, V]) hold(k K, v V) {
	if _, ok := t.held[k]; !ok {
		t.order = append(t.order, k)
	}
	t.held[k] = v
	for len(t.held) > t.max {
		delete(t.held, t.order[0])
		t.order = t.order[1:]
	}
}

// get returns the value held for k; or else waits for the build of k in
// flight, stopping with ctx's error if ctx ends first; or else builds it.
func (t *keyed[K, V]) get(ctx context.Context, k K, build func() (V, error)) (V, error) {
	t.mu.Lock()
	if v, ok := t.held[k]; ok {
		t.mu.Unlock()
		return v, nil
	}
	if b, ok := t.building[k]; ok {
		t.mu.Unlock()
		t.waits.Add(1)
		select {
		case <-b.done:
			return b.v, b.err
		case <-ctx.Done():
			var zero V
			return zero, ctx.Err()
		}
	}
	b := &building[V]{done: make(chan struct{})}
	t.building[k] = b
	t.mu.Unlock()
	b.v, b.err = build()

	t.mu.Lock()
	delete(t.building, k)
	if b.err == nil {
		t.hold(k, b.v)
	}
	t.mu.Unlock()
	close(b.done)
	return b.v, b.err
}
