package routing_test

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/routing"
)

// Min-max load routing on a two-branch cluster: a second-level sensor with
// two packets splits them across branches so no first-level sensor carries
// more than two packets per cycle.
func ExampleBalancedPaths() {
	g := graph.NewUndirected(4)
	g.AddEdge(0, 1) // head - S1
	g.AddEdge(0, 2) // head - S2
	g.AddEdge(1, 3) // S1 - S3
	g.AddEdge(2, 3) // S2 - S3
	demand := []int{0, 1, 1, 2}
	plan, err := routing.BalancedPaths(g, 0, demand)
	if err != nil {
		panic(err)
	}
	fmt.Println("max load (delta):", plan.Delta)
	fmt.Println("S3 paths:", len(plan.Paths[3]))
	// Output:
	// max load (delta): 2
	// S3 paths: 2
}

// Multiple-path rotation (Section V-D): a sensor with split flow alternates
// its paths across duty cycles in proportion to their weights.
func ExamplePlan_CycleRoutes() {
	g := graph.NewUndirected(4)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(1, 3)
	g.AddEdge(2, 3)
	plan, err := routing.BalancedPaths(g, 0, []int{0, 1, 1, 2})
	if err != nil {
		panic(err)
	}
	a := plan.CycleRoutes(0)[3]
	b := plan.CycleRoutes(1)[3]
	fmt.Println("cycle 0 relay:", a[1])
	fmt.Println("cycle 1 relay:", b[1])
	fmt.Println("alternates:", a[1] != b[1])
	// Output:
	// cycle 0 relay: 1
	// cycle 1 relay: 2
	// alternates: true
}

// Source routing (Section V-C): the packet header carries the full path.
func ExampleEncodeSourceRoute() {
	header, err := routing.EncodeSourceRoute([]int{7, 3, 0})
	if err != nil {
		panic(err)
	}
	fmt.Println("header bytes:", len(header))
	next, err := routing.NextHopFromHeader(header, 3)
	if err != nil {
		panic(err)
	}
	fmt.Println("node 3 forwards to:", next)
	// Output:
	// header bytes: 7
	// node 3 forwards to: 0
}
