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

func queryGrid(g *PointGrid, r Region) []int {
	var out []int
	g.Query(r, func(h int) bool {
		out = append(out, h)
		return true
	})
	sort.Ints(out)
	return out
}

// TestPointGridMatchesLinearScan is the quick-check property test: random
// point populations (down to a single point, and collinear ones whose
// bounding box has no width) and random query regions (including degenerate,
// empty and unbounded ones) report exactly the insertion indexes a linear
// scan reports — the cells are one flat index array cut by offsets, and a
// query reads a row of cells as one run of it.
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
			g.Add(p)
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
			got := queryGrid(g, r)
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
		g.Add(p)
		if i%9 == 0 {
			r := RegionAround(Point2D{X: rng.Range(0, 100), Y: rng.Range(0, 100)}, rng.Range(0, 40))
			if !equalInts(queryGrid(g, r), queryLinear(pts, r)) {
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
	for i := 0; i < 10; i++ {
		g.Add(p)
	}
	got := queryGrid(g, RegionAround(p, 1))
	if len(got) != 10 {
		t.Errorf("duplicate-coordinate query found %d points, want 10", len(got))
	}
}

// TestPointGridEarlyStop checks that a false return from fn stops the query.
func TestPointGridEarlyStop(t *testing.T) {
	g := &PointGrid{}
	for i := 0; i < 10; i++ {
		g.Add(Point2D{X: float64(i), Y: 0})
	}
	calls := 0
	g.Query(WholePlane(), func(int) bool {
		calls++
		return false
	})
	if calls != 1 {
		t.Errorf("early stop visited %d points, want 1", calls)
	}
}
