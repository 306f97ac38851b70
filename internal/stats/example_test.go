package stats_test

import (
	"fmt"

	"repro/internal/stats"
)

// Render an aligned ASCII table the way the experiment harness does.
func ExampleTable() {
	fmt.Print(stats.Table(
		[]string{"nodes", "active"},
		[][]string{{"10", "4.1%"}, {"100", "44.9%"}},
	))
	// Output:
	// nodes  active
	// -----  ------
	// 10     4.1%
	// 100    44.9%
}

// Replication statistics for seed sweeps.
func ExampleMean() {
	xs := []float64{1, 2, 3, 4}
	fmt.Println(stats.Mean(xs))
	// Output:
	// 2.5
}
