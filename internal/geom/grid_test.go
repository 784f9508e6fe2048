package geom

import (
	"sort"
	"testing"

	"sensorcq/internal/stats"
)

func queryLinear(pts []Point2D, r Region) []int {
	var out []int
	for i, p := range pts {
		if r.Contains(p) {
			out = append(out, i)
		}
	}
	return out
}

func queryGrid(g *PointGrid, pts []Point2D, r Region) []int {
	var out []int
	g.Query(pts, r, func(ref uint32) bool {
		out = append(out, int(ref))
		return true
	})
	sort.Ints(out)
	return out
}

// TestPointGridMatchesLinearScan is the quick-check property test: random
// point populations (down to a single point, and collinear ones whose
// bounding box has no width) and random query regions (including degenerate,
// empty and unbounded ones) report exactly the refs a linear
// scan reports — the cells are the refs sorted into one flat array cut by
// offsets, and a query reads a row of cells as one run of it.
func TestPointGridMatchesLinearScan(t *testing.T) {
	rng := stats.NewRNG(4321)
	for trial := 0; trial < 30; trial++ {
		n := 1 + int(rng.Uint64()%300)
		g := &PointGrid{}
		pts := make([]Point2D, 0, n)
		for i := 0; i < n; i++ {
			p := Point2D{X: rng.Range(-500, 500), Y: rng.Range(-500, 500)}
			if trial%5 == 4 {
				p.X = 17
			}
			pts = append(pts, p)
			g.Add(uint32(i))
		}
		regions := []Region{
			WholePlane(),
			{X: Interval{Min: 1, Max: 0}, Y: Interval{Min: 0, Max: 1}}, // empty
			RegionAround(pts[0], 0), // degenerate point region on a stored point
		}
		for i := 0; i < 30; i++ {
			x0 := rng.Range(-600, 600)
			y0 := rng.Range(-600, 600)
			regions = append(regions, NewRegion(x0, y0, x0+rng.Range(0, 400), y0+rng.Range(0, 400)))
		}
		for _, r := range regions {
			want := queryLinear(pts, r)
			got := queryGrid(g, pts, r)
			if !equalInts(got, want) {
				t.Fatalf("trial %d: query(%v) = %d hits, want %d", trial, r, len(got), len(want))
			}
		}
	}
}

// TestPointGridIncrementalAdds interleaves insertions and queries to
// exercise the lazy rebuild path.
func TestPointGridIncrementalAdds(t *testing.T) {
	rng := stats.NewRNG(7)
	g := &PointGrid{}
	var pts []Point2D
	for i := 0; i < 100; i++ {
		p := Point2D{X: rng.Range(0, 100), Y: rng.Range(0, 100)}
		pts = append(pts, p)
		g.Add(uint32(i))
		if i%9 == 0 {
			r := RegionAround(Point2D{X: rng.Range(0, 100), Y: rng.Range(0, 100)}, rng.Range(0, 40))
			if !equalInts(queryGrid(g, pts, r), queryLinear(pts, r)) {
				t.Fatalf("after %d adds: query diverged from linear scan", i+1)
			}
		}
	}
	if g.Len() != len(pts) {
		t.Errorf("Len() = %d, want %d", g.Len(), len(pts))
	}
}

// TestPointGridDuplicateCoordinates stores many points at the same location.
func TestPointGridDuplicateCoordinates(t *testing.T) {
	g := &PointGrid{}
	p := Point2D{X: 3, Y: 4}
	pts := make([]Point2D, 10)
	for i := range pts {
		pts[i] = p
		g.Add(uint32(i))
	}
	got := queryGrid(g, pts, RegionAround(p, 1))
	if len(got) != 10 {
		t.Errorf("duplicate-coordinate query found %d points, want 10", len(got))
	}
}

// TestPointGridEarlyStop checks that a false return from fn stops the query.
func TestPointGridEarlyStop(t *testing.T) {
	g := &PointGrid{}
	var pts []Point2D
	for i := 0; i < 10; i++ {
		pts = append(pts, Point2D{X: float64(i), Y: 0})
		g.Add(uint32(i))
	}
	calls := 0
	g.Query(pts, WholePlane(), func(uint32) bool {
		calls++
		return false
	})
	if calls != 1 {
		t.Errorf("early stop visited %d points, want 1", calls)
	}
}

// TestPointGridIndexesItsRefsOnly stores a shuffled subset of the refs of a
// shared coordinate slice, as each of a node's grids holds some of the
// network's sensors, and checks that a query reports exactly the stored refs
// inside the region, before and after further adds.
func TestPointGridIndexesItsRefsOnly(t *testing.T) {
	rng := stats.NewRNG(99)
	pts := make([]Point2D, 600)
	for i := range pts {
		pts[i] = Point2D{X: rng.Range(0, 1000), Y: rng.Range(0, 1000)}
	}
	g := &PointGrid{}
	stored := map[int]bool{}
	add := func(n int) {
		for len(stored) < n {
			ref := int(rng.Uint64() % uint64(len(pts)))
			if !stored[ref] {
				stored[ref] = true
				g.Add(uint32(ref))
			}
		}
	}
	for _, n := range []int{1, 50, 200} {
		add(n)
		for q := 0; q < 20; q++ {
			x, y := rng.Range(-100, 1000), rng.Range(-100, 1000)
			r := NewRegion(x, y, x+rng.Range(0, 500), y+rng.Range(0, 500))
			var want []int
			for ref := range stored {
				if r.Contains(pts[ref]) {
					want = append(want, ref)
				}
			}
			sort.Ints(want)
			if got := queryGrid(g, pts, r); !equalInts(got, want) {
				t.Fatalf("%d stored: query(%v) = %v, want %v", n, r, got, want)
			}
		}
		if g.Len() != n {
			t.Fatalf("Len() = %d, want %d", g.Len(), n)
		}
	}
}
