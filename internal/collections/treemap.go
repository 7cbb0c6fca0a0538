package collections

import "cmp"

// TreeMap is a java.util.TreeMap-style red-black binary search tree
// (CLRS formulation with parent pointers and a black sentinel). The
// rebalancing rotations and recolorings on insert and remove are the
// implementation details that make a plain tree scale poorly inside
// transactions (paper §6.2: "Atomos with a plain TreeMap fails to scale
// because of non-semantic conflicts due to internal operations such as
// red-black tree balancing").
type TreeMap[K comparable, V any] struct {
	cmp  func(a, b K) int
	nilN *tmNode[K, V] // sentinel: black, self-linked
	root *tmNode[K, V]
	size int
	// free lists nfree removed nodes, zeroed and chained through parent,
	// for Put to reuse (see maxFreeNodes).
	free  *tmNode[K, V]
	nfree int
}

type tmNode[K comparable, V any] struct {
	key                 K
	val                 V
	left, right, parent *tmNode[K, V]
	red                 bool
}

// NewTreeMap creates an empty TreeMap ordered by cmp.Compare.
func NewTreeMap[K cmp.Ordered, V any]() *TreeMap[K, V] {
	return NewTreeMapFunc[K, V](cmp.Compare[K])
}

// NewTreeMapFunc creates an empty TreeMap with an explicit comparator,
// like java.util.TreeMap's Comparator constructor.
func NewTreeMapFunc[K comparable, V any](compare func(a, b K) int) *TreeMap[K, V] {
	t := &TreeMap[K, V]{cmp: compare}
	t.nilN = &tmNode[K, V]{}
	t.nilN.left, t.nilN.right, t.nilN.parent = t.nilN, t.nilN, t.nilN
	t.root = t.nilN
	return t
}

// Compare applies the map's comparator.
func (t *TreeMap[K, V]) Compare(a, b K) int { return t.cmp(a, b) }

func (t *TreeMap[K, V]) find(k K) *tmNode[K, V] {
	n := t.root
	for n != t.nilN {
		c := t.cmp(k, n.key)
		switch {
		case c < 0:
			n = n.left
		case c > 0:
			n = n.right
		default:
			return n
		}
	}
	return t.nilN
}

// Get returns the value mapped to k.
func (t *TreeMap[K, V]) Get(k K) (V, bool) {
	n := t.find(k)
	if n == t.nilN {
		var zero V
		return zero, false
	}
	return n.val, true
}

// ContainsKey reports whether k is mapped.
func (t *TreeMap[K, V]) ContainsKey(k K) bool { return t.find(k) != t.nilN }

// Size returns the number of mappings.
func (t *TreeMap[K, V]) Size() int { return t.size }

func (t *TreeMap[K, V]) leftRotate(x *tmNode[K, V]) {
	y := x.right
	x.right = y.left
	if y.left != t.nilN {
		y.left.parent = x
	}
	y.parent = x.parent
	switch {
	case x.parent == t.nilN:
		t.root = y
	case x == x.parent.left:
		x.parent.left = y
	default:
		x.parent.right = y
	}
	y.left = x
	x.parent = y
}

func (t *TreeMap[K, V]) rightRotate(x *tmNode[K, V]) {
	y := x.left
	x.left = y.right
	if y.right != t.nilN {
		y.right.parent = x
	}
	y.parent = x.parent
	switch {
	case x.parent == t.nilN:
		t.root = y
	case x == x.parent.right:
		x.parent.right = y
	default:
		x.parent.left = y
	}
	y.right = x
	x.parent = y
}

// Put maps k to v, returning the previous value if k was present.
func (t *TreeMap[K, V]) Put(k K, v V) (V, bool) {
	y := t.nilN
	x := t.root
	for x != t.nilN {
		y = x
		c := t.cmp(k, x.key)
		switch {
		case c < 0:
			x = x.left
		case c > 0:
			x = x.right
		default:
			old := x.val
			x.val = v
			return old, true
		}
	}
	z := t.free
	if z != nil {
		t.free = z.parent
		t.nfree--
	} else {
		z = new(tmNode[K, V])
	}
	*z = tmNode[K, V]{key: k, val: v, left: t.nilN, right: t.nilN, parent: y, red: true}
	switch {
	case y == t.nilN:
		t.root = z
	case t.cmp(k, y.key) < 0:
		y.left = z
	default:
		y.right = z
	}
	t.size++
	t.insertFixup(z)
	var zero V
	return zero, false
}

func (t *TreeMap[K, V]) insertFixup(z *tmNode[K, V]) {
	for z.parent.red {
		if z.parent == z.parent.parent.left {
			y := z.parent.parent.right
			if y.red {
				z.parent.red = false
				y.red = false
				z.parent.parent.red = true
				z = z.parent.parent
			} else {
				if z == z.parent.right {
					z = z.parent
					t.leftRotate(z)
				}
				z.parent.red = false
				z.parent.parent.red = true
				t.rightRotate(z.parent.parent)
			}
		} else {
			y := z.parent.parent.left
			if y.red {
				z.parent.red = false
				y.red = false
				z.parent.parent.red = true
				z = z.parent.parent
			} else {
				if z == z.parent.left {
					z = z.parent
					t.rightRotate(z)
				}
				z.parent.red = false
				z.parent.parent.red = true
				t.leftRotate(z.parent.parent)
			}
		}
	}
	t.root.red = false
}

func (t *TreeMap[K, V]) transplant(u, v *tmNode[K, V]) {
	switch {
	case u.parent == t.nilN:
		t.root = v
	case u == u.parent.left:
		u.parent.left = v
	default:
		u.parent.right = v
	}
	v.parent = u.parent
}

func (t *TreeMap[K, V]) minimum(n *tmNode[K, V]) *tmNode[K, V] {
	for n.left != t.nilN {
		n = n.left
	}
	return n
}

func (t *TreeMap[K, V]) maximum(n *tmNode[K, V]) *tmNode[K, V] {
	for n.right != t.nilN {
		n = n.right
	}
	return n
}

// Remove deletes k's mapping, returning the removed value if present.
func (t *TreeMap[K, V]) Remove(k K) (V, bool) {
	z := t.find(k)
	if z == t.nilN {
		var zero V
		return zero, false
	}
	removed := z.val
	y := z
	yWasRed := y.red
	var x *tmNode[K, V]
	switch {
	case z.left == t.nilN:
		x = z.right
		t.transplant(z, z.right)
	case z.right == t.nilN:
		x = z.left
		t.transplant(z, z.left)
	default:
		y = t.minimum(z.right)
		yWasRed = y.red
		x = y.right
		if y.parent == z {
			x.parent = y
		} else {
			t.transplant(y, y.right)
			y.right = z.right
			y.right.parent = y
		}
		t.transplant(z, y)
		y.left = z.left
		y.left.parent = y
		y.red = z.red
	}
	if !yWasRed {
		t.deleteFixup(x)
	}
	t.size--
	// Re-point the sentinel at itself in case fixup dirtied it.
	t.nilN.parent = t.nilN
	// z is unlinked in both cases: with two children y took its place.
	if t.nfree < maxFreeNodes {
		*z = tmNode[K, V]{parent: t.free}
		t.free = z
		t.nfree++
	}
	return removed, true
}

func (t *TreeMap[K, V]) deleteFixup(x *tmNode[K, V]) {
	for x != t.root && !x.red {
		if x == x.parent.left {
			w := x.parent.right
			if w.red {
				w.red = false
				x.parent.red = true
				t.leftRotate(x.parent)
				w = x.parent.right
			}
			if !w.left.red && !w.right.red {
				w.red = true
				x = x.parent
			} else {
				if !w.right.red {
					w.left.red = false
					w.red = true
					t.rightRotate(w)
					w = x.parent.right
				}
				w.red = x.parent.red
				x.parent.red = false
				w.right.red = false
				t.leftRotate(x.parent)
				x = t.root
			}
		} else {
			w := x.parent.left
			if w.red {
				w.red = false
				x.parent.red = true
				t.rightRotate(x.parent)
				w = x.parent.left
			}
			if !w.right.red && !w.left.red {
				w.red = true
				x = x.parent
			} else {
				if !w.left.red {
					w.right.red = false
					w.red = true
					t.leftRotate(w)
					w = x.parent.left
				}
				w.red = x.parent.red
				x.parent.red = false
				w.left.red = false
				t.rightRotate(x.parent)
				x = t.root
			}
		}
	}
	x.red = false
}

// FirstKey returns the minimum key.
func (t *TreeMap[K, V]) FirstKey() (K, bool) {
	if t.root == t.nilN {
		var zero K
		return zero, false
	}
	return t.minimum(t.root).key, true
}

// LastKey returns the maximum key.
func (t *TreeMap[K, V]) LastKey() (K, bool) {
	if t.root == t.nilN {
		var zero K
		return zero, false
	}
	return t.maximum(t.root).key, true
}

// ceilingNode returns the node with the smallest key >= k (or > k when
// strict), or the sentinel.
func (t *TreeMap[K, V]) ceilingNode(k K, strict bool) *tmNode[K, V] {
	best := t.nilN
	n := t.root
	for n != t.nilN {
		switch c := t.cmp(k, n.key); {
		case c < 0:
			best = n
			n = n.left
		case c > 0:
			n = n.right
		case strict:
			// Equal but we need a strictly greater key: the successor
			// lives in the right subtree (or is an already-seen best).
			n = n.right
		default:
			return n
		}
	}
	return best
}

// floorNode returns the node with the largest key <= k (or < k when
// strict), or the sentinel.
func (t *TreeMap[K, V]) floorNode(k K, strict bool) *tmNode[K, V] {
	best := t.nilN
	n := t.root
	for n != t.nilN {
		c := t.cmp(k, n.key)
		if c > 0 {
			best = n
			n = n.right
			continue
		}
		if c == 0 && !strict {
			return n
		}
		n = n.left
	}
	return best
}

// CeilingKey returns the smallest key >= k.
func (t *TreeMap[K, V]) CeilingKey(k K) (K, bool) { return t.keyOf(t.ceilingNode(k, false)) }

// HigherKey returns the smallest key > k.
func (t *TreeMap[K, V]) HigherKey(k K) (K, bool) { return t.keyOf(t.ceilingNode(k, true)) }

// FloorKey returns the largest key <= k.
func (t *TreeMap[K, V]) FloorKey(k K) (K, bool) { return t.keyOf(t.floorNode(k, false)) }

// LowerKey returns the largest key < k.
func (t *TreeMap[K, V]) LowerKey(k K) (K, bool) { return t.keyOf(t.floorNode(k, true)) }

func (t *TreeMap[K, V]) keyOf(n *tmNode[K, V]) (K, bool) {
	if n == t.nilN {
		var zero K
		return zero, false
	}
	return n.key, true
}

// successor returns the in-order successor of n.
func (t *TreeMap[K, V]) successor(n *tmNode[K, V]) *tmNode[K, V] {
	if n.right != t.nilN {
		return t.minimum(n.right)
	}
	p := n.parent
	for p != t.nilN && n == p.right {
		n = p
		p = p.parent
	}
	return p
}

// AscendRange visits mappings with lo <= key < hi in ascending order
// until fn returns false; nil bounds are unbounded.
func (t *TreeMap[K, V]) AscendRange(lo, hi *K, fn func(k K, v V) bool) {
	var n *tmNode[K, V]
	if lo == nil {
		if t.root == t.nilN {
			return
		}
		n = t.minimum(t.root)
	} else {
		n = t.ceilingNode(*lo, false)
	}
	for n != t.nilN {
		if hi != nil && t.cmp(n.key, *hi) >= 0 {
			return
		}
		if !fn(n.key, n.val) {
			return
		}
		n = t.successor(n)
	}
}

// ForEach visits every mapping in ascending key order until fn returns
// false.
func (t *TreeMap[K, V]) ForEach(fn func(k K, v V) bool) { t.AscendRange(nil, nil, fn) }

// Keys returns the keys in ascending order.
func (t *TreeMap[K, V]) Keys() []K {
	out := make([]K, 0, t.size)
	t.ForEach(func(k K, _ V) bool {
		out = append(out, k)
		return true
	})
	return out
}

// Clear removes all mappings.
func (t *TreeMap[K, V]) Clear() {
	t.root = t.nilN
	t.size = 0
}

var _ SortedMap[int, int] = (*TreeMap[int, int])(nil)

// checkInvariants verifies the red-black properties, for tests: the
// root is black, no red node has a red child, and every root-to-leaf
// path has the same black height. It returns the black height.
func (t *TreeMap[K, V]) checkInvariants() (int, error) {
	if t.root.red {
		return 0, errRedRoot
	}
	return t.checkNode(t.root)
}

type treeError string

func (e treeError) Error() string { return string(e) }

const (
	errRedRoot  = treeError("red root")
	errRedRed   = treeError("red node with red child")
	errBlackImb = treeError("black-height imbalance")
	errOrder    = treeError("BST order violated")
)

func (t *TreeMap[K, V]) checkNode(n *tmNode[K, V]) (int, error) {
	if n == t.nilN {
		return 1, nil
	}
	if n.red && (n.left.red || n.right.red) {
		return 0, errRedRed
	}
	if n.left != t.nilN && t.cmp(n.left.key, n.key) >= 0 {
		return 0, errOrder
	}
	if n.right != t.nilN && t.cmp(n.right.key, n.key) <= 0 {
		return 0, errOrder
	}
	lh, err := t.checkNode(n.left)
	if err != nil {
		return 0, err
	}
	rh, err := t.checkNode(n.right)
	if err != nil {
		return 0, err
	}
	if lh != rh {
		return 0, errBlackImb
	}
	if n.red {
		return lh, nil
	}
	return lh + 1, nil
}
