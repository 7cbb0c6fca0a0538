package core

import (
	"runtime"
	"testing"
	"time"

	"tcc/internal/collections"
	"tcc/internal/stm"
)

// Tests of what a panic inside the wrapped structure leaves behind. The
// structure runs user code — a TreeMap's or skip list's comparator, == on
// an interface key — inside the collection's guard holds; when that code
// panics the hold must end, the attempt must roll back, and the panic
// must reach the caller of Atomic.

// poison panics, with itself as the value, at the first operation on a
// poisoned structure after it was armed — once, so the rollback and the
// transactions that follow meet a healthy structure again.
type poison struct{ armed bool }

func (p *poison) trip() {
	if p.armed {
		p.armed = false
		panic(p)
	}
}

// poisonedMap is a sorted map whose reads trip the poison: it stands for
// any wrapped structure running user code that panics.
type poisonedMap struct {
	collections.SortedMap[int, int]
	p *poison
}

func (m poisonedMap) Get(k int) (int, bool)        { m.p.trip(); return m.SortedMap.Get(k) }
func (m poisonedMap) ContainsKey(k int) bool       { m.p.trip(); return m.SortedMap.ContainsKey(k) }
func (m poisonedMap) Size() int                    { m.p.trip(); return m.SortedMap.Size() }
func (m poisonedMap) Keys() []int                  { m.p.trip(); return m.SortedMap.Keys() }
func (m poisonedMap) FirstKey() (int, bool)        { m.p.trip(); return m.SortedMap.FirstKey() }
func (m poisonedMap) CeilingKey(k int) (int, bool) { m.p.trip(); return m.SortedMap.CeilingKey(k) }

// within runs fn on its own goroutine and fails the test if it has not
// returned after d: whoever meets a guard a dead attempt left locked
// blocks for ever, and the test should say so instead.
func within(t *testing.T, d time.Duration, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s: still blocked after %v", what, d)
	}
}

func TestPanicInWrappedStructureUnwinds(t *testing.T) {
	layouts := []struct {
		name string
		new  func(p *poison) *TransactionalSortedMap[int, int]
	}{
		{"1 stripe", func(p *poison) *TransactionalSortedMap[int, int] {
			return NewTransactionalSortedMap[int, int](poisonedMap{newIntTree(), p})
		}},
		{"striped", func(p *poison) *TransactionalSortedMap[int, int] {
			return NewRangeStripedTransactionalSortedMap(func() collections.SortedMap[int, int] {
				return poisonedMap{newIntTree(), p}
			}, []int{16, 32, 48})
		}},
	}
	// The poison is armed between prep and do; atomicRead runs both inside
	// AtomicRead (every op but Get falls back, and trips on the retry path,
	// re-armed by the re-executed body).
	type sortedMap = TransactionalSortedMap[int, int]
	ops := []struct {
		name       string
		atomicRead bool
		prep, do   func(tx *stm.Tx, m *sortedMap)
	}{
		{"Size after a blind write", false,
			func(tx *stm.Tx, m *sortedMap) { m.PutUnread(tx, 10, 1) },
			func(tx *stm.Tx, m *sortedMap) { m.Size(tx) }},
		{"CeilingKey", false,
			func(tx *stm.Tx, m *sortedMap) { m.Get(tx, 20) },
			func(tx *stm.Tx, m *sortedMap) { m.CeilingKey(tx, 10) }},
		{"AtomicRead Get", true, nil, func(tx *stm.Tx, m *sortedMap) { m.Get(tx, 10) }},
		{"AtomicRead Size", true, nil, func(tx *stm.Tx, m *sortedMap) { m.Size(tx) }},
		{"AtomicRead Iterator", true, nil, func(tx *stm.Tx, m *sortedMap) { m.TransactionalMap.Iterator(tx) }},
		{"AtomicRead FirstKey", true, nil, func(tx *stm.Tx, m *sortedMap) { m.FirstKey(tx) }},
	}
	for _, proto := range stm.Protocols() {
		for _, ly := range layouts {
			for _, op := range ops {
				t.Run(proto+"/"+ly.name+"/"+op.name, func(t *testing.T) {
					p := new(poison)
					m := ly.new(p)
					th := newTh(1)
					must(t, th.SetProtocol(proto))
					atomically(t, th, func(tx *stm.Tx) {
						for _, k := range []int{13, 20, 40, 60} {
							m.Put(tx, k, k)
						}
					})
					atomic := th.Atomic
					if op.atomicRead {
						atomic = th.AtomicRead
					}
					var recovered any
					func() {
						defer func() { recovered = recover() }()
						err := atomic(func(tx *stm.Tx) error {
							if op.prep != nil {
								op.prep(tx, m)
							}
							p.armed = true
							op.do(tx, m)
							return nil
						})
						t.Errorf("the transaction returned %v; the panic did not reach the caller", err)
					}()
					if recovered != p {
						t.Fatalf("recovered %v, want the structure's own panic value", recovered)
					}
					// Every guard can be taken (assertTablesEmpty takes them
					// all), no semantic lock is left, and the same thread
					// commits on the same instance.
					within(t, 2*time.Second, "the transactions after the panic", func() {
						assertTablesEmpty(t, &m.TransactionalMap, 64)
						if err := th.Atomic(func(tx *stm.Tx) error {
							m.Put(tx, 10, 100)
							if k, ok := m.CeilingKey(tx, 0); !ok || k != 10 {
								t.Errorf("CeilingKey(0) = (%d,%v), want the key just put", k, ok)
							}
							if n := m.Size(tx); n != 5 {
								t.Errorf("Size = %d, want the 4 committed keys and the one just put", n)
							}
							return nil
						}); err != nil {
							t.Error(err)
						}
						if err := th.AtomicRead(func(tx *stm.Tx) error {
							if v, _ := m.Get(tx, 10); v != 100 {
								t.Errorf("Get(10) = %d, want the committed 100", v)
							}
							return nil
						}); err != nil {
							t.Error(err)
						}
						assertTablesEmpty(t, &m.TransactionalMap, 64)
					})
				})
			}
		}
	}

	// The genuine article: a key that cannot be hashed or compared. On the
	// retry path Get meets it in the transaction's own buffer, before any
	// guard; inside AtomicRead the wrapped HashMap meets it under the guard.
	t.Run("uncomparable key", func(t *testing.T) {
		tm := NewTransactionalMap[any, int](collections.NewHashMap[any, int]())
		th := newTh(1)
		atomically(t, th, func(tx *stm.Tx) { tm.Put(tx, "a", 1) })
		var recovered any
		func() {
			defer func() { recovered = recover() }()
			_ = th.AtomicRead(func(tx *stm.Tx) error {
				tm.Get(tx, []int{1})
				return nil
			})
		}()
		if _, ok := recovered.(runtime.Error); !ok {
			t.Fatalf("recovered %v, want the runtime's unhashable-key error", recovered)
		}
		within(t, 2*time.Second, "the read after the panic", func() {
			if err := th.AtomicRead(func(tx *stm.Tx) error {
				if v, _ := tm.Get(tx, "a"); v != 1 {
					t.Errorf("Get(a) = %d, want 1", v)
				}
				return nil
			}); err != nil {
				t.Error(err)
			}
		})
	})
}
