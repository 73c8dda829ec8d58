package pool

import (
	"sync"
	"testing"
)

// TestKeyedNeverCrossesKeys: whatever a Get returns was Put under that key —
// from one goroutine or many — and a key nothing was released under has
// nothing to give. (That a Put is ever found again is sync.Pool's to decide;
// the arena-reuse allocation bounds in internal/cpu measure that it is.)
func TestKeyedNeverCrossesKeys(t *testing.T) {
	var p Keyed[int, []int]
	if v, ok := p.Get(3); ok {
		t.Fatalf("an empty pool returned %v", v)
	}
	p.Put(3, make([]int, 3))
	if v, ok := p.Get(4); ok {
		t.Fatalf("Get(4) returned %v, released under key 3", v)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				key := 1 + (g+i)%5
				if v, ok := p.Get(key); ok && len(v) != key {
					t.Errorf("Get(%d) returned an array of %d", key, len(v))
				}
				p.Put(key, make([]int, key))
			}
		}(g)
	}
	wg.Wait()
}
