package geom

import (
	"math"
)

// PointGrid is a uniform spatial index over a set of 2D points: given an
// axis-aligned query region, it reports every stored point inside the region
// while visiting only the grid cells the region overlaps. It indexes the
// advertised sensor locations so that projecting an abstract subscription
// onto a neighbour's data space touches only the advertisements near the
// subscription's region instead of scanning all of them.
//
// A point is stored as its ref, an index into a coordinate slice the caller
// owns and passes to Query (the network's sensor registry keeps each
// sensor's location once, and every node's grids index into it). A wide
// network holds millions of points across its nodes' grids, most never
// queried, so a grid keeps 4 bytes per point: the refs themselves, which a
// rebuild reorders cell by cell and cuts by per-cell offsets.
//
// The grid is rebuilt lazily: Add appends the ref and marks the grid dirty,
// and the first Query after a batch of insertions rebuilds it — the bounding
// box of all points is split into roughly sqrt(n) cells per axis, giving O(1)
// expected points per cell for the roughly uniform sensor placements the
// topology generator produces. Queries check exact containment, so unbounded
// regions (WholePlane) and degenerate regions work and duplicate coordinates
// are fine. Not safe for concurrent use.
type PointGrid struct {
	// refs lists the points cell by cell up to the last rebuild (the first
	// cellStart[len(cellStart)-1] of them), then those added since.
	refs  []uint32
	dirty bool

	minX, minY float64
	invCW      float64 // cells per unit length in x
	invCH      float64 // cells per unit length in y
	nx, ny     int
	// cellStart[c]..cellStart[c+1] bounds cell c's run in refs.
	cellStart []int32
}

// Add registers a point by its ref. The grid is rebuilt lazily on the next
// Query.
func (g *PointGrid) Add(ref uint32) {
	g.refs = append(g.refs, ref)
	g.dirty = true
}

// Len returns the number of stored points.
func (g *PointGrid) Len() int { return len(g.refs) }

// Query invokes fn with the ref of every stored point inside the region
// (closed bounds); pts[ref] is the point's location, and must cover every
// ref added. Iteration stops early when fn returns false. The order of refs
// is unspecified.
func (g *PointGrid) Query(pts []Point2D, r Region, fn func(ref uint32) bool) {
	if len(g.refs) == 0 || r.Empty() {
		return
	}
	if g.dirty {
		g.rebuild(pts)
	}
	x0 := g.cellX(r.X.Min)
	x1 := g.cellX(r.X.Max)
	y0 := g.cellY(r.Y.Min)
	y1 := g.cellY(r.Y.Max)
	for cy := y0; cy <= y1; cy++ {
		// The cells of one row are adjacent, and so are their runs.
		row := cy * g.nx
		for _, ref := range g.refs[g.cellStart[row+x0]:g.cellStart[row+x1+1]] {
			if r.Contains(pts[ref]) && !fn(ref) {
				return
			}
		}
	}
}

// cellX maps an x coordinate (possibly infinite) to a clamped cell column.
func (g *PointGrid) cellX(x float64) int {
	return clampCell(x, g.minX, g.invCW, g.nx)
}

// cellY maps a y coordinate (possibly infinite) to a clamped cell row.
func (g *PointGrid) cellY(y float64) int {
	return clampCell(y, g.minY, g.invCH, g.ny)
}

func clampCell(v, min, inv float64, n int) int {
	if math.IsInf(v, -1) || v < min {
		return 0
	}
	if math.IsInf(v, 1) {
		return n - 1
	}
	c := int((v - min) * inv)
	if c < 0 {
		return 0
	}
	if c >= n {
		return n - 1
	}
	return c
}

// rebuild sorts the refs into cells over the bounding box of their points.
func (g *PointGrid) rebuild(pts []Point2D) {
	n := len(g.refs)
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for _, ref := range g.refs {
		p := pts[ref]
		minX = math.Min(minX, p.X)
		maxX = math.Max(maxX, p.X)
		minY = math.Min(minY, p.Y)
		maxY = math.Max(maxY, p.Y)
	}
	side := int(math.Ceil(math.Sqrt(float64(n))))
	if side < 1 {
		side = 1
	}
	w := maxX - minX
	h := maxY - minY
	if w <= 0 {
		w = 1
	}
	if h <= 0 {
		h = 1
	}
	g.minX, g.minY = minX, minY
	g.nx, g.ny = side, side
	g.invCW = float64(side) / w
	g.invCH = float64(side) / h
	cell := func(ref uint32) int { return g.cellY(pts[ref].Y)*g.nx + g.cellX(pts[ref].X) }
	// Counting sort by cell: start[c+2] counts cell c; summed, start[c+1] is
	// where cell c's run begins, and filling advances it to where the run
	// ends — where cell c+1's begins, so start[:cells+1] are the offsets.
	start := make([]int32, side*side+2)
	for _, ref := range g.refs {
		start[cell(ref)+2]++
	}
	for c := 2; c < len(start); c++ {
		start[c] += start[c-1]
	}
	sorted := make([]uint32, n)
	for _, ref := range g.refs {
		c := cell(ref) + 1
		sorted[start[c]] = ref
		start[c]++
	}
	g.refs = sorted
	g.cellStart = start[:side*side+1]
	g.dirty = false
}
