package cache

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"spb/internal/mem"
)

// TestReleasedCacheCannotTouchItsArena: a released cache keeps no view of the
// arena the pool may already have handed to another machine, so using it
// panics instead of reading or corrupting that machine's lines — and, once
// the region is unmapped, instead of faulting.
func TestReleasedCacheCannotTouchItsArena(t *testing.T) {
	for _, tc := range []struct {
		name string
		use  func(c *Cache)
	}{
		{"Lookup that misses", func(c *Cache) { c.Lookup(99, true) }},
		{"Lookup that hits", func(c *Cache) { c.Lookup(5, true) }},
		{"Insert", func(c *Cache) { c.Insert(9, Shared, 0, false, false) }},
	} {
		c := small()
		c.Insert(5, Shared, 0, false, false)
		c.Release()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a released cache did not panic", tc.name)
				}
			}()
			tc.use(c)
		}()
	}
}

// TestLineHasNoPointers: an arena's region is viewed as []Line, which is sound
// only while nothing in a Line is a pointer the collector would have to see.
func TestLineHasNoPointers(t *testing.T) {
	var check func(path string, typ reflect.Type)
	check = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
			reflect.String, reflect.Interface, reflect.Func, reflect.Chan:
			t.Errorf("%s is a %v: a Line in an arena must hold no pointer", path, typ.Kind())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				check(path+"."+typ.Field(i).Name, typ.Field(i).Type)
			}
		case reflect.Array:
			check(path+"[]", typ.Elem())
		}
	}
	check("Line", reflect.TypeOf(Line{}))
}

// probe holds a pointer so that the allocator does not pack it in with live
// tiny objects, whose block would keep it from being finalized.
type probe struct{ _ *probe }

// collect runs n collections and waits after each for the finalizers it
// queued: the pool's sentinel, which ages its free lists, and any unreachable
// arena's. They run as one batch in no stated order and the runtime offers no
// wait for a batch, so a probe's finalizer marks the batch begun and a
// millisecond lets the rest of it finish.
func collect(t *testing.T, n int) {
	t.Helper()
	for ; n > 0; n-- {
		ran := make(chan struct{})
		runtime.SetFinalizer(new(probe), func(*probe) { close(ran) })
		runtime.GC()
		select {
		case <-ran:
		case <-time.After(10 * time.Second):
			t.Fatal("a collection ran no finalizer")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestArenaUnmappedWhenDropped: an arena released and not taken again is let
// go by the pool after keepCollections (8) collections, and the next one
// finalizes it and hands its region back.
func TestArenaUnmappedWhenDropped(t *testing.T) {
	const dropped = 8 + 2 // internal/pool's keepCollections, one to let go, one to spare
	collect(t, dropped)   // what earlier tests released or dropped
	start := mappedBytes.Load()
	c := New("dropped", 128*3*mem.BlockSize, 3, 4) // a geometry no other test uses
	c.Release()
	if grew := mappedBytes.Load() - start; grew <= 0 {
		t.Fatalf("building an arena raised the mapped bytes by %d", grew)
	}
	collect(t, dropped)
	if got := mappedBytes.Load(); got != start {
		t.Fatalf("%d bytes mapped after %d idle collections, want %d", got, dropped, start)
	}
}
