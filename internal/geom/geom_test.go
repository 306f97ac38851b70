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

func TestRect(t *testing.T) {
	r := Square(100)
	if c := r.Center(); c != (Point{50, 50}) {
		t.Errorf("Center = %v", c)
	}
	if r.Width() != 100 || r.Height() != 100 {
		t.Errorf("Width/Height = %v/%v", r.Width(), r.Height())
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

func TestPointString(t *testing.T) {
	if s := (Point{1.234, 5.678}).String(); s != "(1.23, 5.68)" {
		t.Errorf("String = %q", s)
	}
}

// Contains reports whether p lies inside the rectangle (borders inclusive).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.MinX && p.X <= r.MaxX && p.Y >= r.MinY && p.Y <= r.MaxY
}
