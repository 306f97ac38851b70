package radio

import "repro/internal/geom"

// cellGrid is a uniform spatial hash over the medium's node positions:
// nodes bucketed into square cells, stored CSR-style (one flat id array
// plus per-cell offsets). It answers "which nodes lie within r of p" by
// scanning only the cells overlapping the query disc, which is what keeps
// sparse row rebuilds O(neighborhood) instead of O(N).
//
// Positions are fixed for a Medium's lifetime, so the grid is rebuilt only
// when a finer cell size is needed (a node's cutoff radius shrank well
// below the current cell); it is never mutated incrementally.
type cellGrid struct {
	cell       float64 // cell side in meters; 0 means unbuilt
	minX, minY float64
	nx, ny     int
	start      []int32 // cell c holds ids[start[c]:start[c+1]]
	ids        []int32 // node ids bucketed by cell, ascending within a cell
}

// build populates the grid over pos with the given cell size, bucketing by
// counting sort so ids come out ascending within each cell.
func (g *cellGrid) build(pos []geom.Point, b geom.Rect, cell float64) {
	g.cell = cell
	g.minX, g.minY = b.MinX, b.MinY
	g.nx = int((b.MaxX-b.MinX)/cell) + 1
	g.ny = int((b.MaxY-b.MinY)/cell) + 1
	cells := g.nx * g.ny
	if cap(g.start) >= cells+1 {
		g.start = g.start[:cells+1]
		for i := range g.start {
			g.start[i] = 0
		}
	} else {
		g.start = make([]int32, cells+1)
	}
	if cap(g.ids) >= len(pos) {
		g.ids = g.ids[:len(pos)]
	} else {
		g.ids = make([]int32, len(pos))
	}
	for _, p := range pos {
		g.start[g.cellOf(p)+1]++
	}
	for c := 0; c < cells; c++ {
		g.start[c+1] += g.start[c]
	}
	// Second pass fills ids; the cursor trick walks start forward and the
	// final shift restores the prefix sums. Iterating pos in id order keeps
	// ids ascending within each cell.
	for i, p := range pos {
		c := g.cellOf(p)
		g.ids[g.start[c]] = int32(i)
		g.start[c]++
	}
	for c := cells; c > 0; c-- {
		g.start[c] = g.start[c-1]
	}
	g.start[0] = 0
}

// cellOf returns the cell index of p. Positions outside the build bounds
// are clamped to the border cells.
func (g *cellGrid) cellOf(p geom.Point) int {
	cx := g.clampX(int((p.X - g.minX) / g.cell))
	cy := g.clampY(int((p.Y - g.minY) / g.cell))
	return cy*g.nx + cx
}

func (g *cellGrid) clampX(c int) int {
	if c < 0 {
		return 0
	}
	if c >= g.nx {
		return g.nx - 1
	}
	return c
}

func (g *cellGrid) clampY(c int) int {
	if c < 0 {
		return 0
	}
	if c >= g.ny {
		return g.ny - 1
	}
	return c
}

// appendWithin appends to out every node id (except self) whose position
// lies within r of center, in arbitrary order, and returns the extended
// slice. Callers sort; membership is a pure function of the geometry, so
// the result set is deterministic regardless of grid cell size.
func (g *cellGrid) appendWithin(pos []geom.Point, center geom.Point, r float64, self int32, out []int32) []int32 {
	r2 := r * r
	x0 := g.clampX(int((center.X - r - g.minX) / g.cell))
	x1 := g.clampX(int((center.X + r - g.minX) / g.cell))
	y0 := g.clampY(int((center.Y - r - g.minY) / g.cell))
	y1 := g.clampY(int((center.Y + r - g.minY) / g.cell))
	for cy := y0; cy <= y1; cy++ {
		for cx := x0; cx <= x1; cx++ {
			c := cy*g.nx + cx
			for _, id := range g.ids[g.start[c]:g.start[c+1]] {
				if id != self && pos[id].Dist2(center) <= r2 {
					out = append(out, id)
				}
			}
		}
	}
	return out
}
