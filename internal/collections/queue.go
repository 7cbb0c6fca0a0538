package collections

// LinkedQueue is a singly linked FIFO queue with head/tail pointers,
// the structure TransactionalQueue wraps (paper §3.3).
type LinkedQueue[T any] struct {
	head, tail *lqNode[T]
	size       int
	// free lists nfree dequeued nodes, zeroed and chained through next,
	// for Enqueue to reuse (see maxFreeNodes).
	free  *lqNode[T]
	nfree int
}

type lqNode[T any] struct {
	val  T
	next *lqNode[T]
}

// NewLinkedQueue creates an empty queue.
func NewLinkedQueue[T any]() *LinkedQueue[T] { return &LinkedQueue[T]{} }

// Enqueue appends v at the tail.
func (q *LinkedQueue[T]) Enqueue(v T) {
	n := q.free
	if n != nil {
		q.free = n.next
		q.nfree--
	} else {
		n = new(lqNode[T])
	}
	*n = lqNode[T]{val: v}
	if q.tail == nil {
		q.head, q.tail = n, n
	} else {
		q.tail.next = n
		q.tail = n
	}
	q.size++
}

// Dequeue removes and returns the head element.
func (q *LinkedQueue[T]) Dequeue() (T, bool) {
	if q.head == nil {
		var zero T
		return zero, false
	}
	n := q.head
	q.head = n.next
	if q.head == nil {
		q.tail = nil
	}
	q.size--
	v := n.val
	if q.nfree < maxFreeNodes {
		*n = lqNode[T]{next: q.free}
		q.free = n
		q.nfree++
	}
	return v, true
}

// Peek returns the head element without removing it.
func (q *LinkedQueue[T]) Peek() (T, bool) {
	if q.head == nil {
		var zero T
		return zero, false
	}
	return q.head.val, true
}

// Size returns the number of queued elements.
func (q *LinkedQueue[T]) Size() int { return q.size }

var _ Queue[int] = (*LinkedQueue[int])(nil)
