package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPointDist(t *testing.T) {
	cases := []struct {
		p, q Point
		want float64
	}{
		{Point{0, 0}, Point{3, 4}, 5},
		{Point{1, 1}, Point{1, 1}, 0},
		{Point{-1, -1}, Point{2, 3}, 5},
		{Point{0, 0}, Point{0, 7.5}, 7.5},
	}
	for _, c := range cases {
		if got := c.p.Dist(c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Dist(%v,%v)=%v want %v", c.p, c.q, got, c.want)
		}
		// Symmetry.
		if got := c.q.Dist(c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Dist(%v,%v)=%v want %v", c.q, c.p, got, c.want)
		}
	}
}

func TestDist2MatchesDistSquared(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		// Clamp to a sane range to avoid overflow-ish extremes from quick.
		clamp := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0
			}
			return math.Mod(v, 1e6)
		}
		p := Point{clamp(ax), clamp(ay)}
		q := Point{clamp(bx), clamp(by)}
		d := p.Dist(q)
		return math.Abs(p.Dist2(q)-d*d) <= 1e-6*(1+d*d)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVectorOps(t *testing.T) {
	p, q := Point{1, 2}, Point{3, -4}
	if got := p.Add(q); got != (Point{4, -2}) {
		t.Errorf("Add = %v", got)
	}
	if got := p.Sub(q); got != (Point{-2, 6}) {
		t.Errorf("Sub = %v", got)
	}
	if got := p.Scale(2); got != (Point{2, 4}) {
		t.Errorf("Scale = %v", got)
	}
}

func TestRect(t *testing.T) {
	r := Square(100)
	if c := r.Center(); c != (Point{50, 50}) {
		t.Errorf("Center = %v", c)
	}
	if r.Width() != 100 || r.Height() != 100 {
		t.Errorf("Width/Height = %v/%v", r.Width(), r.Height())
	}
	if r.Area() != 10000 {
		t.Errorf("Area = %v", r.Area())
	}
	if !r.Contains(Point{0, 0}) || !r.Contains(Point{100, 100}) {
		t.Error("Contains should include borders")
	}
	if r.Contains(Point{100.01, 50}) {
		t.Error("Contains should exclude outside points")
	}
	if math.Abs(r.Diagonal()-100*math.Sqrt2) > 1e-9 {
		t.Errorf("Diagonal = %v", r.Diagonal())
	}
}

func TestUniformDeployInsideAndCount(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	r := Square(73)
	pts := UniformDeploy(rng, r, 500)
	if len(pts) != 500 {
		t.Fatalf("len = %d", len(pts))
	}
	for _, p := range pts {
		if !r.Contains(p) {
			t.Fatalf("point %v outside %v", p, r)
		}
	}
}

func TestUniformDeployDeterministicPerSeed(t *testing.T) {
	a := UniformDeploy(rand.New(rand.NewSource(7)), Square(10), 20)
	b := UniformDeploy(rand.New(rand.NewSource(7)), Square(10), 20)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("deployment not deterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestUniformDeployRoughlyUniform(t *testing.T) {
	// Quadrant counts should each be near n/4.
	rng := rand.New(rand.NewSource(42))
	r := Square(100)
	pts := UniformDeploy(rng, r, 4000)
	var q [4]int
	for _, p := range pts {
		i := 0
		if p.X > 50 {
			i |= 1
		}
		if p.Y > 50 {
			i |= 2
		}
		q[i]++
	}
	for i, c := range q {
		if c < 800 || c > 1200 {
			t.Errorf("quadrant %d count %d far from 1000", i, c)
		}
	}
}

func TestGridDeploy(t *testing.T) {
	r := Square(10)
	pts := GridDeploy(r, 9)
	if len(pts) != 9 {
		t.Fatalf("len = %d", len(pts))
	}
	for _, p := range pts {
		if !r.Contains(p) {
			t.Fatalf("grid point %v outside", p)
		}
	}
	// Distinctness.
	seen := map[Point]bool{}
	for _, p := range pts {
		if seen[p] {
			t.Fatalf("duplicate grid point %v", p)
		}
		seen[p] = true
	}
	if got := GridDeploy(r, 0); got != nil {
		t.Errorf("GridDeploy(0) = %v, want nil", got)
	}
	if got := GridDeploy(r, 5); len(got) != 5 {
		t.Errorf("GridDeploy(5) len = %d", len(got))
	}
}

func TestVoronoiAssignNearest(t *testing.T) {
	sites := []Point{{0, 0}, {10, 0}, {5, 10}}
	pts := []Point{{1, 1}, {9, 1}, {5, 9}, {5, 1}}
	got := VoronoiAssign(pts, sites)
	want := []int{0, 1, 2, 0} // (5,1) ties broken toward lower index? dist to 0 is sqrt(26), to 1 sqrt(26): tie -> 0.
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("assign[%d] = %d want %d", i, got[i], want[i])
		}
	}
}

func TestVoronoiAssignProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	r := Square(50)
	sites := UniformDeploy(rng, r, 6)
	pts := UniformDeploy(rng, r, 200)
	assign := VoronoiAssign(pts, sites)
	for i, p := range pts {
		d := p.Dist2(sites[assign[i]])
		for s := range sites {
			if p.Dist2(sites[s]) < d-1e-12 {
				t.Fatalf("point %v assigned to %d but %d is closer", p, assign[i], s)
			}
		}
	}
}

func TestVoronoiAssignPanicsOnNoSites(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	VoronoiAssign([]Point{{1, 1}}, nil)
}

func TestAnnulusDeploy(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := Point{10, 10}
	pts := AnnulusDeploy(rng, c, 5, 15, 300)
	for _, p := range pts {
		d := p.Dist(c)
		if d < 5-1e-9 || d > 15+1e-9 {
			t.Fatalf("annulus point at distance %v outside [5,15]", d)
		}
	}
}

func TestAnnulusDeployInvalidRadii(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	AnnulusDeploy(rand.New(rand.NewSource(1)), Point{}, 10, 5, 1)
}

func TestPointString(t *testing.T) {
	if s := (Point{1.234, 5.678}).String(); s != "(1.23, 5.68)" {
		t.Errorf("String = %q", s)
	}
}

// Add returns the vector sum p+q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns the vector difference p-q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by k.
func (p Point) Scale(k float64) Point { return Point{p.X * k, p.Y * k} }

// Area returns the rectangle's area in square meters.
func (r Rect) Area() float64 { return r.Width() * r.Height() }

// Contains reports whether p lies inside the rectangle (borders inclusive).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.MinX && p.X <= r.MaxX && p.Y >= r.MinY && p.Y <= r.MaxY
}

// GridDeploy places up to n points on a regular grid covering r, useful for
// deterministic tests. Points are emitted row-major. If n exceeds the grid
// capacity of ceil(sqrt(n))^2 the full grid is returned.
func GridDeploy(r Rect, n int) []Point {
	if n <= 0 {
		return nil
	}
	side := int(math.Ceil(math.Sqrt(float64(n))))
	pts := make([]Point, 0, n)
	for i := 0; i < side && len(pts) < n; i++ {
		for j := 0; j < side && len(pts) < n; j++ {
			pts = append(pts, Point{
				X: r.MinX + (float64(j)+0.5)*r.Width()/float64(side),
				Y: r.MinY + (float64(i)+0.5)*r.Height()/float64(side),
			})
		}
	}
	return pts
}

// AnnulusDeploy places n points uniformly in the annulus centered at c with
// radii [rMin, rMax]. Useful for constructing clusters with controlled hop
// levels in tests.
func AnnulusDeploy(rng *rand.Rand, c Point, rMin, rMax float64, n int) []Point {
	if rMin < 0 || rMax < rMin {
		panic("geom: invalid annulus radii")
	}
	pts := make([]Point, n)
	for i := range pts {
		// Inverse-CDF sampling for uniform area density.
		u := rng.Float64()
		rad := math.Sqrt(u*(rMax*rMax-rMin*rMin) + rMin*rMin)
		theta := rng.Float64() * 2 * math.Pi
		pts[i] = Point{c.X + rad*math.Cos(theta), c.Y + rad*math.Sin(theta)}
	}
	return pts
}
