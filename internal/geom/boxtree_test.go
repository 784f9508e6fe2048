package geom

import (
	"math"
	"slices"
	"sort"
	"testing"

	"sensorcq/internal/stats"
)

// btRef is the brute-force reference: a flat list of live boxes.
type btRef struct {
	boxes   map[int][]Interval
	nextKey int
}

func (r *btRef) stab(pt []float64) []int {
	var out []int
	for h, box := range r.boxes {
		ok := true
		for d, iv := range box {
			if !iv.Contains(pt[d]) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, h)
		}
	}
	sort.Ints(out)
	return out
}

func equalInts(a, b []int) bool { return slices.Equal(a, b) }

func collectStab(t *BoxTree, pt []float64) []int {
	var out []int
	t.Stab(pt, func(h int) bool {
		out = append(out, h)
		return true
	})
	sort.Ints(out)
	return out
}

// TestBoxTreeChurnMatchesLinearScan drives random interleaved insert, remove
// and stab operations across dimensionalities (including unbounded and
// degenerate boxes) and checks every stab against the brute-force scan. This
// is the structure's core contract: incremental maintenance must be
// indistinguishable from a fresh index over the live population.
func TestBoxTreeChurnMatchesLinearScan(t *testing.T) {
	rng := stats.NewRNG(1234)
	for _, dims := range []int{1, 2, 3} {
		tree := NewBoxTree(dims)
		ref := &btRef{boxes: map[int][]Interval{}}
		tokens := map[int]int32{}
		var liveKeys []int

		randBox := func() []Interval {
			box := make([]Interval, dims)
			for d := range box {
				switch {
				case rng.Bool(0.1): // unbounded dimension
					box[d] = Interval{Min: math.Inf(-1), Max: math.Inf(1)}
				case rng.Bool(0.05): // degenerate point
					v := rng.Range(-100, 100)
					box[d] = Point(v)
				default:
					lo := rng.Range(-100, 100)
					box[d] = NewInterval(lo, lo+rng.Range(0, 40))
				}
			}
			return box
		}
		randPt := func() []float64 {
			pt := make([]float64, dims)
			for d := range pt {
				pt[d] = rng.Range(-110, 110)
			}
			return pt
		}

		for step := 0; step < 4000; step++ {
			switch {
			case len(liveKeys) == 0 || rng.Bool(0.45): // insert
				key := ref.nextKey
				ref.nextKey++
				box := randBox()
				tok := tree.Insert(box, key)
				if tok < 0 {
					t.Fatalf("dims=%d: non-empty box rejected", dims)
				}
				tokens[key] = tok
				ref.boxes[key] = box
				liveKeys = append(liveKeys, key)
			case rng.Bool(0.5): // remove
				i := rng.Intn(len(liveKeys))
				key := liveKeys[i]
				liveKeys[i] = liveKeys[len(liveKeys)-1]
				liveKeys = liveKeys[:len(liveKeys)-1]
				tree.Remove(tokens[key])
				delete(tokens, key)
				delete(ref.boxes, key)
			default: // stab
				pt := randPt()
				got := collectStab(tree, pt)
				want := ref.stab(pt)
				if !equalInts(got, want) {
					t.Fatalf("dims=%d step=%d: stab(%v) = %v, want %v", dims, step, pt, got, want)
				}
			}
			if tree.Len() != len(ref.boxes) {
				t.Fatalf("dims=%d step=%d: Len() = %d, want %d", dims, step, tree.Len(), len(ref.boxes))
			}
		}
		// Final sweep: a batch of stabs over the surviving population.
		for q := 0; q < 200; q++ {
			pt := randPt()
			if got, want := collectStab(tree, pt), ref.stab(pt); !equalInts(got, want) {
				t.Fatalf("dims=%d final: stab(%v) = %v, want %v", dims, pt, got, want)
			}
		}
	}
}

// TestBoxTreeEmptyBoxIgnored pins the empty-dimension contract: such a box is
// not stored, its token is negative, and removing that token is a no-op.
func TestBoxTreeEmptyBoxIgnored(t *testing.T) {
	tree := NewBoxTree(2)
	tok := tree.Insert([]Interval{{Min: 1, Max: 0}, NewInterval(0, 1)}, 7)
	if tok >= 0 {
		t.Fatalf("empty box got token %d, want negative", tok)
	}
	if tree.Len() != 0 {
		t.Fatalf("Len() = %d, want 0", tree.Len())
	}
	tree.Remove(tok) // must not panic or corrupt
	if tok2 := tree.Insert([]Interval{NewInterval(0, 2), NewInterval(0, 2)}, 8); tok2 < 0 {
		t.Fatal("non-empty box rejected after empty insert")
	}
	if got := collectStab(tree, []float64{1, 1}); !equalInts(got, []int{8}) {
		t.Fatalf("stab = %v, want [8]", got)
	}
}

// TestBoxTreeStaysBalanced checks that the incremental rotations keep the
// tree logarithmic through a sequence sorted to provoke worst-case skew
// (ascending disjoint boxes), and through heavy one-sided removal.
func TestBoxTreeStaysBalanced(t *testing.T) {
	tree := NewBoxTree(1)
	n := 4096
	tokens := make([]int32, 0, n)
	for i := 0; i < n; i++ {
		lo := float64(i) * 10
		tokens = append(tokens, tree.Insert([]Interval{NewInterval(lo, lo+5)}, i))
	}
	// A perfectly balanced tree over 4096 leaves has height 12; allow slack
	// for the heuristic but reject anything close to linear.
	if h := tree.Height(); h > 24 {
		t.Fatalf("height %d after sorted inserts, want <= 24", h)
	}
	// Remove the lower three quarters; the survivors must stay balanced.
	for i := 0; i < 3*n/4; i++ {
		tree.Remove(tokens[i])
	}
	if h := tree.Height(); h > 22 {
		t.Fatalf("height %d after one-sided removal of 3/4, want <= 22", h)
	}
	if tree.Len() != n/4 {
		t.Fatalf("Len() = %d, want %d", tree.Len(), n/4)
	}
	for i := 3 * n / 4; i < n; i++ {
		lo := float64(i) * 10
		if got := collectStab(tree, []float64{lo + 1}); !equalInts(got, []int{i}) {
			t.Fatalf("stab after removal = %v, want [%d]", got, i)
		}
	}
}

// TestBoxTreeNodeReuse verifies the free-list: a long churn at constant
// population must not grow the node pool without bound.
func TestBoxTreeNodeReuse(t *testing.T) {
	tree := NewBoxTree(3)
	rng := stats.NewRNG(5)
	const pop = 128
	tokens := make([]int32, pop)
	box := func(i int) []Interval {
		lo := rng.Range(0, 1000)
		return []Interval{
			NewInterval(lo, lo+10),
			{Min: math.Inf(-1), Max: math.Inf(1)},
			{Min: math.Inf(-1), Max: math.Inf(1)},
		}
	}
	for i := 0; i < pop; i++ {
		tokens[i] = tree.Insert(box(i), i)
	}
	grownTo := len(tree.nodes)
	for step := 0; step < 10000; step++ {
		i := rng.Intn(pop)
		tree.Remove(tokens[i])
		tokens[i] = tree.Insert(box(i), i)
	}
	if len(tree.nodes) > grownTo+2 {
		t.Fatalf("node pool grew from %d to %d under constant-population churn", grownTo, len(tree.nodes))
	}
}
