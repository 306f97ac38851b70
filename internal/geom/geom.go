// Package geom provides the 2-D geometry primitives used throughout the
// simulator: points, distances, deployment regions, uniform random sensor
// placement and Voronoi-cell assignment for cluster forming.
//
// All coordinates are in meters, matching the paper's physical-layer setup
// (sensors uniformly deployed within a two-dimensional square with the
// cluster head placed at the center).
package geom

import (
	"fmt"
	"math"
	"math/rand"
)

// Point is a location in the deployment plane, in meters.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance between p and q in meters.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Dist2 returns the squared Euclidean distance between p and q. It avoids
// the square root when only comparisons are needed (e.g. Voronoi cells).
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.2f, %.2f)", p.X, p.Y) }

// Rect is an axis-aligned rectangle [MinX,MaxX] x [MinY,MaxY].
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// Square returns a side x side square anchored at the origin.
func Square(side float64) Rect {
	return Rect{0, 0, side, side}
}

// Center returns the geometric center of the rectangle. The paper places
// the cluster head at the center of the deployment square.
func (r Rect) Center() Point {
	return Point{(r.MinX + r.MaxX) / 2, (r.MinY + r.MaxY) / 2}
}

// Width returns the horizontal extent of the rectangle.
func (r Rect) Width() float64 { return r.MaxX - r.MinX }

// Height returns the vertical extent of the rectangle.
func (r Rect) Height() float64 { return r.MaxY - r.MinY }

// Diagonal returns the length of the rectangle's diagonal, an upper bound
// on the distance between any two deployed nodes.
func (r Rect) Diagonal() float64 {
	return math.Hypot(r.Width(), r.Height())
}

// UniformDeploy places n points independently and uniformly at random in r,
// using rng as the randomness source. It reproduces the paper's "all sensor
// nodes are uniformly deployed within a two-dimensional square" setup.
func UniformDeploy(rng *rand.Rand, r Rect, n int) []Point {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{
			X: r.MinX + rng.Float64()*r.Width(),
			Y: r.MinY + rng.Float64()*r.Height(),
		}
	}
	return pts
}

// VoronoiAssign assigns each point to the index of its nearest site,
// breaking ties toward the lower site index. This implements the paper's
// suggested cluster-forming rule: "let cluster heads compute the Voronoi
// diagrams and let sensors in the same Voronoi cell belong to the same
// cluster" (Section V-A).
//
// It returns a slice parallel to pts with the chosen site index for each
// point. VoronoiAssign panics if sites is empty.
func VoronoiAssign(pts, sites []Point) []int {
	if len(sites) == 0 {
		panic("geom: VoronoiAssign requires at least one site")
	}
	assign := make([]int, len(pts))
	for i, p := range pts {
		best, bestD := 0, p.Dist2(sites[0])
		for s := 1; s < len(sites); s++ {
			if d := p.Dist2(sites[s]); d < bestD {
				best, bestD = s, d
			}
		}
		assign[i] = best
	}
	return assign
}
