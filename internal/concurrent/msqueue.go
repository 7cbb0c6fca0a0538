package concurrent

import "sync/atomic"

// MSQueue is the Michael-Scott non-blocking concurrent queue — the
// algorithm behind java.util.concurrent.ConcurrentLinkedQueue that the
// paper's §2.2 cites (Michael & Scott, PODC '96). It is the
// fine-grained, non-transactional comparison point: individually
// linearizable operations with no way to compose several atomically,
// which is exactly the gap TransactionalQueue fills.
type MSQueue[T any] struct {
	head atomic.Pointer[msNode[T]]
	tail atomic.Pointer[msNode[T]]
}

type msNode[T any] struct {
	val  T
	next atomic.Pointer[msNode[T]]
}

// NewMSQueue creates an empty queue.
func NewMSQueue[T any]() *MSQueue[T] {
	q := &MSQueue[T]{}
	dummy := &msNode[T]{}
	q.head.Store(dummy)
	q.tail.Store(dummy)
	return q
}

// Enqueue appends v at the tail (lock-free).
func (q *MSQueue[T]) Enqueue(v T) {
	n := &msNode[T]{val: v}
	for {
		tail := q.tail.Load()
		next := tail.next.Load()
		if tail != q.tail.Load() {
			continue
		}
		if next != nil {
			// Tail is lagging; help advance it.
			q.tail.CompareAndSwap(tail, next)
			continue
		}
		if tail.next.CompareAndSwap(nil, n) {
			q.tail.CompareAndSwap(tail, n)
			return
		}
	}
}

// Dequeue removes and returns the head element (lock-free).
func (q *MSQueue[T]) Dequeue() (T, bool) {
	for {
		head := q.head.Load()
		tail := q.tail.Load()
		next := head.next.Load()
		if head != q.head.Load() {
			continue
		}
		if head == tail {
			if next == nil {
				var zero T
				return zero, false
			}
			// Tail lagging behind a concurrent enqueue; help it.
			q.tail.CompareAndSwap(tail, next)
			continue
		}
		if q.head.CompareAndSwap(head, next) {
			return next.val, true
		}
	}
}
