package geom

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// BoxTree is an incrementally maintained point-stabbing index over a
// collection of k-dimensional axis-aligned boxes: given a k-dimensional
// point, it reports every stored box containing the point while examining
// only the subtrees whose bounds contain it. It is the composite
// multi-attribute structure behind the event-matching fast path: a
// subscription filter contributes one box over all of its stabbed dimensions
// at once (value range × spatial region), so an incoming reading stabs one
// structure with (value, x, y) instead of stabbing a per-attribute interval
// tree and re-checking the region on every candidate.
//
// The BoxTree is a dynamic bounding-volume tree
// maintained in place: Insert descends to the cheapest sibling (capped
// perimeter heuristic), splices in a new parent and rebalances with AVL-style
// rotations on the way up; Remove splices the leaf out and refits/rebalances
// the ancestor path. Both are O(log n), which is what makes steady-state
// subscribe/unsubscribe churn cheap: there is no tombstone accumulation and
// no rebuild-from-scratch cliff between a retraction and the next stab.
//
// Nodes live in a pooled slice and freed nodes are reused (free list), so
// churn does not grow the backing array. Insert returns an opaque token that
// Remove takes back; tokens are invalidated by Remove and must not be reused.
//
// Bounds may be infinite (an unbounded filter range or a whole-plane region);
// containment tests handle ±Inf exactly, and the balance heuristic caps
// widths so infinite extents compare by their finite dimensions instead of
// degenerating to NaN.
//
// Boxes with an empty dimension can contain no point; Insert reports them
// with a negative token and stores nothing (Remove of a negative token is a
// no-op). A BoxTree is not safe for concurrent use; every protocol handler
// owns its own and the engines guarantee per-node sequential execution.
type BoxTree struct {
	dims  int
	nodes []btNode
	root  int32
	free  int32 // head of the freed-node list, -1 when empty
	count int
	stack []int32 // scratch for the iterative stab descent
}

// btMaxDims bounds the tree's dimensionality so node bounds are inline
// arrays (no per-node allocations). The matching indexes need at most three
// dimensions (value × location x × location y).
const btMaxDims = 4

const btNil = int32(-1)

// btNode is one pooled tree node: a leaf stores a user box and handle, an
// internal node the union bounds and heights of its two children. Freed
// nodes are chained through child1.
type btNode struct {
	lo, hi [btMaxDims]float64

	parent int32
	child1 int32
	child2 int32
	// height is 0 for leaves, 1+max(children) for internal nodes, and -1 for
	// nodes on the free list.
	height int32

	handle int
}

func (n *btNode) isLeaf() bool { return n.child1 == btNil }

// NewBoxTree returns an empty tree over boxes of the given dimensionality
// (1..4). It panics on an out-of-range dimensionality — a programming error,
// not an input error.
func NewBoxTree(dims int) *BoxTree {
	if dims < 1 || dims > btMaxDims {
		panic(fmt.Sprintf("geom: BoxTree dimensionality %d outside 1..%d", dims, btMaxDims))
	}
	return &BoxTree{dims: dims, root: btNil, free: btNil}
}

// Dims returns the tree's dimensionality.
func (t *BoxTree) Dims() int { return t.dims }

// Len returns the number of stored boxes.
func (t *BoxTree) Len() int { return t.count }

// Insert stores the box (one interval per dimension) under the given handle
// and returns the token Remove takes back. A box with an empty dimension is
// not stored and yields a negative token.
func (t *BoxTree) Insert(box []Interval, handle int) int32 {
	if len(box) != t.dims {
		panic(fmt.Sprintf("geom: BoxTree.Insert got %d dimensions, want %d", len(box), t.dims))
	}
	for _, iv := range box {
		if iv.Empty() {
			return btNil
		}
	}
	leaf := t.allocNode()
	n := &t.nodes[leaf]
	for d, iv := range box {
		n.lo[d] = iv.Min
		n.hi[d] = iv.Max
	}
	n.height = 0
	n.handle = handle
	t.insertLeaf(leaf)
	t.count++
	return leaf
}

// Remove takes back the box stored under the token returned by Insert.
// Negative tokens are ignored.
func (t *BoxTree) Remove(token int32) {
	if token < 0 {
		return
	}
	t.removeLeaf(token)
	t.freeNode(token)
	t.count--
}

// Stab invokes fn with the handle of every stored box containing the point
// (one coordinate per dimension, closed bounds). Iteration stops early when
// fn returns false; the order of handles is unspecified.
func (t *BoxTree) Stab(pt []float64, fn func(handle int) bool) {
	if len(pt) != t.dims {
		panic(fmt.Sprintf("geom: BoxTree.Stab got %d coordinates, want %d", len(pt), t.dims))
	}
	if t.root == btNil {
		return
	}
	stack := t.stack[:0]
	stack = append(stack, t.root)
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := &t.nodes[i]
		contains := true
		for d := 0; d < t.dims; d++ {
			if pt[d] < n.lo[d] || pt[d] > n.hi[d] {
				contains = false
				break
			}
		}
		if !contains {
			continue
		}
		if n.isLeaf() {
			if !fn(n.handle) {
				t.stack = stack
				return
			}
			continue
		}
		stack = append(stack, n.child1, n.child2)
	}
	t.stack = stack
}

// allocNode takes a node off the free list or grows the pool.
func (t *BoxTree) allocNode() int32 {
	if t.free != btNil {
		i := t.free
		t.free = t.nodes[i].child1
		t.nodes[i] = btNode{parent: btNil, child1: btNil, child2: btNil}
		return i
	}
	t.nodes = append(t.nodes, btNode{parent: btNil, child1: btNil, child2: btNil})
	return int32(len(t.nodes) - 1)
}

// freeNode returns a node to the free list.
func (t *BoxTree) freeNode(i int32) {
	t.nodes[i].child1 = t.free
	t.nodes[i].height = -1
	t.free = i
}

// cappedWidth is the extent of [lo, hi] with infinite extents contributing
// zero, so the insertion heuristic can compare candidate subtrees that
// contain unbounded boxes: an unbounded dimension is equally unbounded in
// every union, so it carries no clustering signal, and any large stand-in
// constant would swamp the finite dimensions' differences below float64
// precision (1e18 + 20 == 1e18), degenerating sibling selection to
// arbitrary choice and the stab cost towards a full scan. Dropping the
// dimension from the cost lets the finite dimensions decide (this is what
// keeps the tree clustered by value range when every region is the whole
// plane).
func cappedWidth(lo, hi float64) float64 {
	w := hi - lo
	if math.IsInf(w, 1) {
		return 0
	}
	return w
}

// perimeter is the heuristic size of a node's bounds: the sum of its capped
// widths (the d-dimensional analogue of Box2D's half-perimeter cost).
func (t *BoxTree) perimeter(i int32) float64 {
	n := &t.nodes[i]
	p := 0.0
	for d := 0; d < t.dims; d++ {
		p += cappedWidth(n.lo[d], n.hi[d])
	}
	return p
}

// unionPerimeter is the perimeter the node's bounds would have after
// absorbing the leaf's box.
func (t *BoxTree) unionPerimeter(i, leaf int32) float64 {
	n, l := &t.nodes[i], &t.nodes[leaf]
	p := 0.0
	for d := 0; d < t.dims; d++ {
		p += cappedWidth(math.Min(n.lo[d], l.lo[d]), math.Max(n.hi[d], l.hi[d]))
	}
	return p
}

// insertLeaf splices the leaf into the tree next to the cheapest sibling and
// rebalances the ancestor path.
func (t *BoxTree) insertLeaf(leaf int32) {
	if t.root == btNil {
		t.root = leaf
		t.nodes[leaf].parent = btNil
		return
	}

	// Descend to the best sibling: at each internal node, compare the cost of
	// pairing with the node itself against the estimated cost of descending
	// into either child (Box2D's branch-and-bound descent).
	index := t.root
	for !t.nodes[index].isLeaf() {
		child1 := t.nodes[index].child1
		child2 := t.nodes[index].child2

		perim := t.perimeter(index)
		combined := t.unionPerimeter(index, leaf)
		costHere := 2 * combined
		inherited := 2 * (combined - perim)

		cost1 := t.descendCost(child1, leaf) + inherited
		cost2 := t.descendCost(child2, leaf) + inherited
		if costHere < cost1 && costHere < cost2 {
			break
		}
		if cost1 < cost2 {
			index = child1
		} else {
			index = child2
		}
	}
	sibling := index

	// Splice a new parent in between the sibling and its old parent.
	oldParent := t.nodes[sibling].parent
	newParent := t.allocNode()
	t.nodes[newParent].parent = oldParent
	t.nodes[newParent].height = t.nodes[sibling].height + 1
	if oldParent == btNil {
		t.root = newParent
	} else if t.nodes[oldParent].child1 == sibling {
		t.nodes[oldParent].child1 = newParent
	} else {
		t.nodes[oldParent].child2 = newParent
	}
	t.nodes[newParent].child1 = sibling
	t.nodes[newParent].child2 = leaf
	t.nodes[sibling].parent = newParent
	t.nodes[leaf].parent = newParent

	t.refitUp(newParent)
}

// descendCost estimates the cost of pushing the leaf into the subtree rooted
// at i: the enlargement of i's bounds, plus the creation cost of a new pair
// node when i is a leaf.
func (t *BoxTree) descendCost(i, leaf int32) float64 {
	enlarged := t.unionPerimeter(i, leaf)
	if t.nodes[i].isLeaf() {
		return enlarged
	}
	return enlarged - t.perimeter(i)
}

// removeLeaf splices the leaf out, promoting its sibling into their parent's
// place, and rebalances the ancestor path.
func (t *BoxTree) removeLeaf(leaf int32) {
	if leaf == t.root {
		t.root = btNil
		return
	}
	parent := t.nodes[leaf].parent
	grandParent := t.nodes[parent].parent
	sibling := t.nodes[parent].child1
	if sibling == leaf {
		sibling = t.nodes[parent].child2
	}
	if grandParent == btNil {
		t.root = sibling
		t.nodes[sibling].parent = btNil
		t.freeNode(parent)
		return
	}
	if t.nodes[grandParent].child1 == parent {
		t.nodes[grandParent].child1 = sibling
	} else {
		t.nodes[grandParent].child2 = sibling
	}
	t.nodes[sibling].parent = grandParent
	t.freeNode(parent)
	t.refitUp(grandParent)
}

// refitNode recomputes an internal node's height and bounds from its
// children. Every structural mutation funnels through it (the refitUp walk
// and both nodes touched by a rotation), so the bounds/height rule lives in
// exactly one place.
func (t *BoxTree) refitNode(i int32) {
	n := &t.nodes[i]
	c1, c2 := &t.nodes[n.child1], &t.nodes[n.child2]
	n.height = 1 + max32(c1.height, c2.height)
	for d := 0; d < t.dims; d++ {
		n.lo[d] = math.Min(c1.lo[d], c2.lo[d])
		n.hi[d] = math.Max(c1.hi[d], c2.hi[d])
	}
}

// refitUp walks from i to the root, rebalancing each node and recomputing
// its bounds and height from its (possibly rotated) children.
func (t *BoxTree) refitUp(i int32) {
	for i != btNil {
		i = t.balance(i)
		t.refitNode(i)
		i = t.nodes[i].parent
	}
}

// balance performs one AVL-style rotation at i when its children's heights
// differ by more than one, returning the root of the balanced subtree. The
// rotation reuses the existing nodes (no frees, no allocations): the taller
// child is lifted into i's place and one of its children is handed down to i.
func (t *BoxTree) balance(iA int32) int32 {
	a := &t.nodes[iA]
	if a.isLeaf() || a.height < 2 {
		return iA
	}
	iB, iC := a.child1, a.child2
	bal := t.nodes[iC].height - t.nodes[iB].height
	switch {
	case bal > 1:
		return t.rotateUp(iA, iC, iB)
	case bal < -1:
		return t.rotateUp(iA, iB, iC)
	default:
		return iA
	}
}

// rotateUp lifts the taller child iUp of iA into iA's place; iA keeps the
// shorter child iKeep and adopts iUp's shorter grandchild, and iUp adopts iA
// under its taller grandchild. Bounds and heights of iA and iUp are refit
// here; the ancestors are refit by the caller's walk.
func (t *BoxTree) rotateUp(iA, iUp, iKeep int32) int32 {
	a, up := &t.nodes[iA], &t.nodes[iUp]
	iF, iG := up.child1, up.child2
	if t.nodes[iF].height < t.nodes[iG].height {
		iF, iG = iG, iF // iF is the taller grandchild and stays under iUp
	}

	up.child1 = iF
	up.child2 = iA
	up.parent = a.parent
	a.parent = iUp
	if up.parent == btNil {
		t.root = iUp
	} else if t.nodes[up.parent].child1 == iA {
		t.nodes[up.parent].child1 = iUp
	} else {
		t.nodes[up.parent].child2 = iUp
	}

	// iA keeps iKeep and adopts the shorter grandchild iG.
	a.child1 = iKeep
	a.child2 = iG
	t.nodes[iG].parent = iA

	t.refitNode(iA)
	t.refitNode(iUp)
	return iUp
}

// BulkLoad builds the tree from a whole batch of boxes in one bottom-up pass.
// boxes is the flat concatenation of one box per handle — len(handles)*Dims()
// intervals, box i occupying boxes[i*Dims() : (i+1)*Dims()]. It returns one
// token per box, aligned with handles. Boxes with an empty dimension are not
// stored and yield a negative token, exactly like Insert; all other tokens
// are interchangeable with Insert's — Remove splices them out of the packed
// tree the same way, and subsequent Inserts extend it incrementally.
//
// On an empty tree the batch is packed by recursive median split on the
// dimension with the widest spread of box centers (a sort-tile-recursive
// style partitioning specialised to a binary tree): the split puts ⌈n/2⌉
// leaves left and ⌊n/2⌋ right, so subtree sizes at every level differ by at
// most one and the built tree has height ⌈log₂ n⌉ with sibling heights
// differing by at most one — at least as balanced as anything the
// incremental rebalancer produces, so later Inserts and Removes take over
// seamlessly. Construction is
// O(n log² n) comparisons and exactly 2n-1 pooled nodes, against n separate
// O(log n) heuristic descents (each potentially rotating) for the
// incremental path. On a non-empty tree BulkLoad degrades to a loop of
// Inserts.
func (t *BoxTree) BulkLoad(boxes []Interval, handles []int) []int32 {
	if len(boxes) != len(handles)*t.dims {
		panic(fmt.Sprintf("geom: BoxTree.BulkLoad got %d intervals for %d handles of %d dimensions",
			len(boxes), len(handles), t.dims))
	}
	tokens := make([]int32, len(handles))
	if t.count != 0 {
		for i, h := range handles {
			tokens[i] = t.Insert(boxes[i*t.dims:(i+1)*t.dims], h)
		}
		return tokens
	}

	// Materialise the leaves first: the token contract is "node index", so
	// every stored box needs its node before any internal node is allocated.
	leaves := make([]int32, 0, len(handles))
	for i, h := range handles {
		box := boxes[i*t.dims : (i+1)*t.dims]
		empty := false
		for _, iv := range box {
			if iv.Empty() {
				empty = true
				break
			}
		}
		if empty {
			tokens[i] = btNil
			continue
		}
		leaf := t.allocNode()
		n := &t.nodes[leaf]
		for d, iv := range box {
			n.lo[d] = iv.Min
			n.hi[d] = iv.Max
		}
		n.height = 0
		n.handle = h
		tokens[i] = leaf
		leaves = append(leaves, leaf)
	}
	t.count = len(leaves)
	if len(leaves) == 0 {
		return tokens
	}
	t.root = t.buildSubtree(leaves)
	t.nodes[t.root].parent = btNil
	return tokens
}

// buildSubtree packs the given leaves into a balanced subtree and returns its
// root. The leaves are reordered in place.
func (t *BoxTree) buildSubtree(leaves []int32) int32 {
	if len(leaves) == 1 {
		return leaves[0]
	}

	// Split on the dimension along which the box centers spread the widest:
	// that is where a median cut separates the population best, which is what
	// keeps sibling bounds from overlapping and stabs from visiting both
	// halves. Ties and all-identical centers degrade gracefully — the median
	// split still halves the population, so balance never depends on the data.
	splitDim := 0
	widest := math.Inf(-1)
	for d := 0; d < t.dims; d++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, leaf := range leaves {
			c := t.centerKey(leaf, d)
			lo = math.Min(lo, c)
			hi = math.Max(hi, c)
		}
		if spread := hi - lo; spread > widest {
			widest = spread
			splitDim = d
		}
	}
	slices.SortFunc(leaves, func(a, b int32) int {
		return cmp.Compare(t.centerKey(a, splitDim), t.centerKey(b, splitDim))
	})

	mid := (len(leaves) + 1) / 2
	c1 := t.buildSubtree(leaves[:mid])
	c2 := t.buildSubtree(leaves[mid:])
	p := t.allocNode()
	t.nodes[p].child1 = c1
	t.nodes[p].child2 = c2
	t.nodes[c1].parent = p
	t.nodes[c2].parent = p
	t.refitNode(p)
	return p
}

// centerKey is the sort key of a leaf's box along one dimension: the midpoint
// for finite bounds, the finite bound for half-open boxes, and 0 for fully
// unbounded ones (mirroring cappedWidth's rule that an unbounded extent
// carries no clustering signal).
func (t *BoxTree) centerKey(leaf int32, d int) float64 {
	n := &t.nodes[leaf]
	lo, hi := n.lo[d], n.hi[d]
	switch {
	case math.IsInf(lo, -1) && math.IsInf(hi, 1):
		return 0
	case math.IsInf(lo, -1):
		return hi
	case math.IsInf(hi, 1):
		return lo
	default:
		return lo + (hi-lo)/2
	}
}

// Height returns the height of the tree (0 when empty or a single leaf); a
// balanced tree stays logarithmic in Len. Exposed for tests and diagnostics.
func (t *BoxTree) Height() int {
	if t.root == btNil {
		return 0
	}
	return int(t.nodes[t.root].height)
}

func max32(a, b int32) int32 {
	if a > b {
		return a
	}
	return b
}
