package routing

// Workspace holds the reusable solver state of BalancedPaths: the flow
// network with its adjacency and Dinic scratch and the decomposer's
// slice-indexed state. Every plan
// runs on one: BalancedPaths (or a nil workspace) gets a zero-value one
// private to the call. The zero value is ready to use; one workspace
// serves one goroutine at a time.
//
// Plans returned by BalancedPathsWS never alias workspace memory — only
// the solver's intermediate state is recycled — so cached plans stay
// immutable while the workspace is reused every epoch. This is what
// removes the network-build allocations (the dominant routing cost on
// the field's epoch hot path) without touching plan semantics.
type Workspace struct {
	nw  network
	dec decomposer
}

// intSlice returns s resized to n, reusing the backing array when it is
// large enough. Contents are unspecified; callers must overwrite (or
// tolerate, as the generation-stamped decomposer state does) every entry.
func intSlice(s []int, n int) []int {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]int, n)
}

// int64Slice is intSlice for []int64.
func int64Slice(s []int64, n int) []int64 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]int64, n)
}
