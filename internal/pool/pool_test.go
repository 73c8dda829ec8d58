package pool

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestKeyedNeverCrossesKeys: whatever a Get returns was Put under that key —
// from one goroutine or many — and a key nothing was released under has
// nothing to give.
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

// TestKeyedSurvivesCollections: a released array is still at hand after any
// few collections — the process builds it once, not once per other GC.
func TestKeyedSurvivesCollections(t *testing.T) {
	var p Keyed[int, []int]
	a := make([]int, 1<<16)
	p.Put(7, a)
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	v, ok := p.Get(7)
	if !ok || &v[0] != &a[0] {
		t.Fatalf("after three collections Get returned (%p, %v), want the array released (%p)", v, ok, a)
	}
}

// collect runs n collections and waits for the sentinel to have counted each.
func collect(t *testing.T, n int) {
	t.Helper()
	for ; n > 0; n-- {
		was := epoch.Load()
		runtime.GC()
		for deadline := time.Now().Add(10 * time.Second); epoch.Load() == was; time.Sleep(100 * time.Microsecond) {
			if time.Now().After(deadline) {
				t.Fatal("a collection went uncounted: the sentinel is not armed")
			}
		}
	}
}

// TestKeyedKeepsAShelfInUse: a key its users keep taking from and releasing to
// keeps every value released under it, the one at the bottom of the list too —
// serialized runs take the top value over and over, and the second is what
// the next overlap needs.
func TestKeyedKeepsAShelfInUse(t *testing.T) {
	var p Keyed[int, *int]
	a, b := new(int), new(int)
	p.Put(9, a)
	p.Put(9, b)
	for i := 0; i < 3*keepCollections; i++ {
		v, ok := p.Get(9)
		if !ok || v != b {
			t.Fatalf("collection %d: Get returned (%p, %v), want the last released (%p)", i, v, ok, b)
		}
		p.Put(9, v)
		collect(t, 1)
	}
	if v, ok := p.Get(9); !ok || v != b {
		t.Fatalf("Get returned (%p, %v), want %p", v, ok, b)
	}
	if v, ok := p.Get(9); !ok || v != a {
		t.Fatalf("the bottom of a shelf in use was let go: Get returned (%p, %v), want %p", v, ok, a)
	}
}

// TestKeyedLetsGoWhenIdle: an array nobody takes for keepCollections
// collections is dropped and the collector gets it back; taking it and
// releasing it again in between starts its age afresh.
func TestKeyedLetsGoWhenIdle(t *testing.T) {
	var p Keyed[string, *[1 << 16]int]
	var freed atomic.Bool
	func() {
		a := new([1 << 16]int)
		runtime.SetFinalizer(a, func(*[1 << 16]int) { freed.Store(true) })
		p.Put("idle", a)
	}()
	collect(t, keepCollections-1)
	a, ok := p.Get("idle")
	if !ok {
		t.Fatalf("gone after %d collections, want it kept for %d", keepCollections-1, keepCollections)
	}
	p.Put("idle", a)
	a = nil
	collect(t, keepCollections-1)
	if _, ok := p.Get("other"); ok || freed.Load() {
		t.Fatal("a Get in between did not reset the array's age")
	}
	collect(t, 2) // the first lets go of it, the second collects it
	for deadline := time.Now().Add(10 * time.Second); !freed.Load(); runtime.GC() {
		if time.Now().After(deadline) {
			t.Fatal("the array is still referenced after keepCollections+1 idle collections")
		}
	}
	if _, ok := p.Get("idle"); ok {
		t.Fatal("Get returned an array the list had let go")
	}
	if got := p.Misses("idle"); got != 1 {
		t.Fatalf("Misses = %d, want the one Get that found nothing", got)
	}
}
