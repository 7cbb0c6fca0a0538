package concurrent

import (
	"sync"
	"testing"

	"tcc/internal/collections"
)

func TestSyncMapConcurrentAccess(t *testing.T) {
	m := NewSyncMap[int, int](collections.NewHashMap[int, int]())
	var wg sync.WaitGroup
	const workers, per = 8, 200
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				k := w*per + i
				m.Put(k, k)
				if v, ok := m.Get(k); !ok || v != k {
					t.Errorf("get(%d) = (%d,%v)", k, v, ok)
				}
			}
		}(w)
	}
	wg.Wait()
	for k := 0; k < workers*per; k++ {
		if v, ok := m.Get(k); !ok || v != k {
			t.Fatalf("after the writers, get(%d) = (%d,%v)", k, v, ok)
		}
	}
}

func TestSyncMapContainsAndRemove(t *testing.T) {
	m := NewSyncMap[string, int](collections.NewHashMap[string, int]())
	m.Put("a", 1)
	if _, ok := m.Get("a"); !ok {
		t.Fatal("put key absent")
	}
	if _, ok := m.Get("b"); ok {
		t.Fatal("unput key present")
	}
	if v, ok := m.Remove("a"); !ok || v != 1 {
		t.Fatalf("remove = (%d,%v)", v, ok)
	}
	if _, ok := m.Get("a"); ok {
		t.Fatal("removed key present")
	}
	if _, ok := m.Remove("a"); ok {
		t.Fatal("second remove found the key")
	}
}

// TestSyncSortedMapPutRemove covers the sorted-map constructor: the
// same wrapper over a TreeMap.
func TestSyncSortedMapPutRemove(t *testing.T) {
	m := NewSyncSortedMap[int, string](collections.NewTreeMap[int, string]())
	m.Put(2, "b")
	m.Put(1, "a")
	if old, ok := m.Put(2, "B"); !ok || old != "b" {
		t.Fatalf("put over = (%q,%v)", old, ok)
	}
	if v, ok := m.Remove(2); !ok || v != "B" {
		t.Fatalf("remove = (%q,%v)", v, ok)
	}
	if v, ok := m.Get(1); !ok || v != "a" {
		t.Fatalf("get = (%q,%v)", v, ok)
	}
}
