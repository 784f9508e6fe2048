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
// Points are registered with an opaque integer handle (typically an index
// into a caller-side slice of payloads). Queries check exact containment, so
// unbounded regions (WholePlane) and degenerate regions work and duplicate
// coordinates are fine. Not safe for concurrent use.
type PointGrid struct {
	pts   []gridPoint
	dirty bool

	minX, minY float64
	invCW      float64 // cells per unit length in x
	invCH      float64 // cells per unit length in y
	nx, ny     int
	cells      [][]int32
}

type gridPoint struct {
	p      Point2D
	handle int
}

// Add registers a point under the given handle. The grid is rebuilt lazily
// on the next Query.
func (g *PointGrid) Add(p Point2D, handle int) {
	g.pts = append(g.pts, gridPoint{p: p, handle: handle})
	g.dirty = true
}

// Len returns the number of stored points.
func (g *PointGrid) Len() int { return len(g.pts) }

// Query invokes fn with the handle of every stored point inside the region
// (closed bounds). Iteration stops early when fn returns false. The order of
// handles is unspecified.
func (g *PointGrid) Query(r Region, fn func(handle int) bool) {
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
		for cx := x0; cx <= x1; cx++ {
			for _, i := range g.cells[cy*g.nx+cx] {
				gp := g.pts[i]
				if r.Contains(gp.p) && !fn(gp.handle) {
					return
				}
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

// rebuild reconstructs the cell lists from the recorded points.
func (g *PointGrid) rebuild() {
	n := len(g.pts)
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for _, gp := range g.pts {
		minX = math.Min(minX, gp.p.X)
		maxX = math.Max(maxX, gp.p.X)
		minY = math.Min(minY, gp.p.Y)
		maxY = math.Max(maxY, gp.p.Y)
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
	g.cells = make([][]int32, side*side)
	for i, gp := range g.pts {
		cx := g.cellX(gp.p.X)
		cy := g.cellY(gp.p.Y)
		idx := cy*g.nx + cx
		g.cells[idx] = append(g.cells[idx], int32(i))
	}
	g.dirty = false
}
