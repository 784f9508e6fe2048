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
// The grid is rebuilt lazily: Add records the point and
// marks the grid dirty, and the first Query after a batch of insertions
// rebuilds it — the bounding box of all points is split into roughly sqrt(n)
// cells per axis, giving O(1) expected points per cell for the roughly
// uniform sensor placements the topology generator produces.
//
// A point is identified by its insertion index (the first Add is 0). A wide
// network holds millions of points across its nodes' grids, most never
// queried, so a grid retains 16 bytes per point until its first Query and 4
// more after: the cells are one flat index array cut by per-cell offsets,
// not a slice header per cell. Queries check exact containment, so
// unbounded regions (WholePlane) and degenerate regions work and duplicate
// coordinates are fine. Not safe for concurrent use.
type PointGrid struct {
	pts   []Point2D
	dirty bool

	minX, minY float64
	invCW      float64 // cells per unit length in x
	invCH      float64 // cells per unit length in y
	nx, ny     int
	// cellStart[c]..cellStart[c+1] bounds cell c's run in cellPts, which
	// lists point indexes cell by cell.
	cellStart []int32
	cellPts   []int32
}

// Add registers a point. The grid is rebuilt lazily on the next Query.
func (g *PointGrid) Add(p Point2D) {
	g.pts = append(g.pts, p)
	g.dirty = true
}

// Len returns the number of stored points.
func (g *PointGrid) Len() int { return len(g.pts) }

// Query invokes fn with the insertion index of every stored point inside the
// region (closed bounds). Iteration stops early when fn returns false. The
// order of indexes is unspecified.
func (g *PointGrid) Query(r Region, fn func(i int) bool) {
	if len(g.pts) == 0 || r.Empty() {
		return
	}
	if g.dirty {
		g.rebuild()
	}
	x0 := g.cellX(r.X.Min)
	x1 := g.cellX(r.X.Max)
	y0 := g.cellY(r.Y.Min)
	y1 := g.cellY(r.Y.Max)
	for cy := y0; cy <= y1; cy++ {
		// The cells of one row are adjacent, and so are their runs.
		row := cy * g.nx
		for _, i := range g.cellPts[g.cellStart[row+x0]:g.cellStart[row+x1+1]] {
			if r.Contains(g.pts[i]) && !fn(int(i)) {
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

// rebuild reconstructs the cells from the recorded points.
func (g *PointGrid) rebuild() {
	n := len(g.pts)
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for _, p := range g.pts {
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
	cell := func(p Point2D) int { return g.cellY(p.Y)*g.nx + g.cellX(p.X) }
	// Counting sort by cell: start[c+2] counts cell c; summed, start[c+1] is
	// where cell c's run begins, and filling advances it to where the run
	// ends — where cell c+1's begins, so start[:cells+1] are the offsets.
	start := make([]int32, side*side+2)
	for _, p := range g.pts {
		start[cell(p)+2]++
	}
	for c := 2; c < len(start); c++ {
		start[c] += start[c-1]
	}
	g.cellPts = make([]int32, n)
	for i, p := range g.pts {
		c := cell(p) + 1
		g.cellPts[start[c]] = int32(i)
		start[c]++
	}
	g.cellStart = start[:side*side+1]
	g.dirty = false
}
