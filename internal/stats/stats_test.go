package stats

import (
	"math"
	"strings"
	"testing"
)

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("empty mean should be 0")
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Mean = %v", got)
	}
}

func TestStdDev(t *testing.T) {
	if StdDev([]float64{5}) != 0 {
		t.Error("single sample stddev should be 0")
	}
	got := StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if math.Abs(got-2.138) > 0.01 {
		t.Errorf("StdDev = %v", got)
	}
}

func TestCI95(t *testing.T) {
	if CI95([]float64{1}) != 0 {
		t.Error("single sample CI should be 0")
	}
	xs := []float64{1, 1, 1, 1}
	if CI95(xs) != 0 {
		t.Error("constant sample CI should be 0")
	}
	wide := CI95([]float64{0, 10})
	if wide <= 0 {
		t.Error("spread sample should have positive CI")
	}
}

func TestMinMax(t *testing.T) {
	min, max := MinMax([]float64{3, -1, 7, 2})
	if min != -1 || max != 7 {
		t.Errorf("MinMax = %v, %v", min, max)
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic on empty")
		}
	}()
	MinMax(nil)
}

func TestTable(t *testing.T) {
	out := Table([]string{"n", "value"}, [][]string{{"10", "1.5"}, {"100", "2.25"}})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "n  ") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(lines[1], "---") {
		t.Errorf("rule = %q", lines[1])
	}
	// Alignment: "100" occupies the same columns as "n" header width 3.
	if !strings.HasPrefix(lines[3], "100") {
		t.Errorf("row = %q", lines[3])
	}
}

func TestWriteCSV(t *testing.T) {
	var b strings.Builder
	err := WriteCSV(&b, []string{"a", "b"}, [][]string{{"1", "2"}, {"3", "4"}})
	if err != nil {
		t.Fatal(err)
	}
	want := "a,b\n1,2\n3,4\n"
	if b.String() != want {
		t.Errorf("csv = %q", b.String())
	}
}

// CI95 returns the half-width of an approximate 95% confidence interval
// for the mean (normal approximation; fine for the harness's replication
// counts).
func CI95(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	return 1.96 * StdDev(xs) / math.Sqrt(float64(len(xs)))
}

// MinMax returns the extrema of xs; it panics on an empty slice.
func MinMax(xs []float64) (min, max float64) {
	if len(xs) == 0 {
		panic("stats: MinMax of empty slice")
	}
	min, max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max
}

// StdDev returns the sample standard deviation of xs (0 for fewer than two
// samples).
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)-1))
}
