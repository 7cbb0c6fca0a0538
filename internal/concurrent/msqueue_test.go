package concurrent

import (
	"sync"
	"testing"
)

func TestMSQueueSequential(t *testing.T) {
	q := NewMSQueue[int]()
	if _, ok := q.Dequeue(); ok {
		t.Fatal("dequeue on empty succeeded")
	}
	for i := 0; i < 100; i++ {
		q.Enqueue(i)
	}
	for i := 0; i < 100; i++ {
		if v, ok := q.Dequeue(); !ok || v != i {
			t.Fatalf("dequeue = (%d,%v), want %d", v, ok, i)
		}
	}
	if _, ok := q.Dequeue(); ok {
		t.Fatal("dequeue after drain succeeded")
	}
}

func TestMSQueueConcurrentProducersConsumers(t *testing.T) {
	q := NewMSQueue[int]()
	const producers, per = 4, 500
	var pg sync.WaitGroup
	for p := 0; p < producers; p++ {
		pg.Add(1)
		go func(p int) {
			defer pg.Done()
			for i := 0; i < per; i++ {
				q.Enqueue(p*per + i)
			}
		}(p)
	}
	var mu sync.Mutex
	seen := map[int]int{}
	var cg sync.WaitGroup
	stop := make(chan struct{})
	for c := 0; c < 4; c++ {
		cg.Add(1)
		go func() {
			defer cg.Done()
			for {
				v, ok := q.Dequeue()
				if !ok {
					select {
					case <-stop:
						// Final drain after producers finished.
						for {
							v, ok := q.Dequeue()
							if !ok {
								return
							}
							mu.Lock()
							seen[v]++
							mu.Unlock()
						}
					default:
						continue
					}
				}
				mu.Lock()
				seen[v]++
				mu.Unlock()
			}
		}()
	}
	pg.Wait()
	close(stop)
	cg.Wait()
	if len(seen) != producers*per {
		t.Fatalf("consumed %d distinct, want %d", len(seen), producers*per)
	}
	for v, n := range seen {
		if n != 1 {
			t.Fatalf("element %d consumed %d times", v, n)
		}
	}
}

func TestMSQueuePerProducerFIFO(t *testing.T) {
	// Elements from one producer must come out in that producer's
	// order (FIFO holds per enqueuer).
	q := NewMSQueue[[2]int]()
	const producers, per = 3, 300
	var pg sync.WaitGroup
	for p := 0; p < producers; p++ {
		pg.Add(1)
		go func(p int) {
			defer pg.Done()
			for i := 0; i < per; i++ {
				q.Enqueue([2]int{p, i})
			}
		}(p)
	}
	pg.Wait()
	last := map[int]int{0: -1, 1: -1, 2: -1}
	for {
		v, ok := q.Dequeue()
		if !ok {
			break
		}
		if v[1] <= last[v[0]] {
			t.Fatalf("producer %d out of order: %d after %d", v[0], v[1], last[v[0]])
		}
		last[v[0]] = v[1]
	}
	for p, l := range last {
		if l != per-1 {
			t.Fatalf("producer %d lost elements (last=%d)", p, l)
		}
	}
}
