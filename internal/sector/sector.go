// Package sector implements Section IV of the paper: dividing a cluster
// into sectors that wake and transmit in turn, so sensors idle-listen only
// during their own sector's (much shorter) polling window.
//
// Finding the optimal partition is NP-hard — even under the simplified
// "pseudo power consumption rate" objective (Theorem 5, reduction from
// Partition; see cpar.go) — so the package provides the paper's heuristic:
// merge the load-balanced flow solution into a tree ("flow merging"), make
// each first-level branch a sector, then pair branches under three
// balancing rules.
package sector

import (
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/radio"
)

// Partition is a division of the cluster's sensors into sectors.
type Partition struct {
	// Head is the cluster head's node id.
	Head int
	// Parent[v] is sensor v's parent in the merged relaying tree;
	// Parent[Head] = Head. Every sensor's packets flow to the head along
	// parent links.
	Parent []int
	// Sectors lists each sector's member sensors (ascending ids). Every
	// sensor belongs to exactly one sector.
	Sectors [][]int
	// Roots[k] lists the first-level sensors of sector k (one per merged
	// branch, so one or two after pairing).
	Roots [][]int
}

// NSectors returns the number of sectors.
func (p *Partition) NSectors() int { return len(p.Sectors) }

// SectorOf returns the sector index of sensor v, or -1.
func (p *Partition) SectorOf(v int) int {
	for k, s := range p.Sectors {
		for _, x := range s {
			if x == v {
				return k
			}
		}
	}
	return -1
}

// MergeToTree performs "flow merging": it collapses the (possibly
// flow-splitting) relaying routes into a tree by forcing every sensor to
// choose a single parent. Following the paper, flow-splitting sensors
// closest to the cluster head choose first, and each picks the candidate
// parent minimizing the maximum load along that parent's path to the head.
//
// routes maps each demand-bearing sensor to its relaying path (sensor ...
// head); sensors not mentioned in any route are attached along BFS
// shortest-path parents so the tree spans the whole cluster. demand[v] is
// v's packets per duty cycle.
func MergeToTree(g *graph.Undirected, head int, routes map[int][]int, demand []int) ([]int, error) {
	n := g.N()
	if head < 0 || head >= n {
		return nil, fmt.Errorf("sector: head %d out of range", head)
	}
	if len(demand) != n {
		return nil, fmt.Errorf("sector: demand has %d entries for %d nodes", len(demand), n)
	}
	level := g.BFSLevels(head)
	// Candidate parents per sensor from the routes.
	cand := make(map[int]map[int]bool)
	for v, r := range routes {
		if len(r) < 2 || r[0] != v || r[len(r)-1] != head {
			return nil, fmt.Errorf("sector: bad route for sensor %d: %v", v, r)
		}
		for i := 0; i+1 < len(r); i++ {
			u, next := r[i], r[i+1]
			if !g.HasEdge(u, next) {
				return nil, fmt.Errorf("sector: route of %d uses non-edge %d-%d", v, u, next)
			}
			if cand[u] == nil {
				cand[u] = make(map[int]bool)
			}
			cand[u][next] = true
		}
	}
	bfsParent := g.BFSTree(head)
	parent := make([]int, n)
	for v := range parent {
		parent[v] = -1
	}
	parent[head] = head

	// Decide parents in increasing level order so that a sensor's chosen
	// parent already has a committed path to the head.
	order := make([]int, 0, n-1)
	for v := 0; v < n; v++ {
		if v != head {
			order = append(order, v)
		}
	}
	sort.Slice(order, func(i, j int) bool {
		li, lj := level[order[i]], level[order[j]]
		if li != lj {
			return li < lj
		}
		return order[i] < order[j]
	})

	// loadThrough estimates the load each node would carry; recomputed
	// lazily as parents are fixed. Start with own demand.
	subtree := make([]int, n)
	copy(subtree, demand)

	pathMaxLoad := func(p int) int {
		max := 0
		for x := p; x != head; x = parent[x] {
			if parent[x] < 0 {
				return 1 << 30 // parent chain not committed yet; avoid
			}
			if subtree[x] > max {
				max = subtree[x]
			}
		}
		return max
	}

	for _, v := range order {
		if level[v] < 0 {
			if demand[v] > 0 {
				return nil, fmt.Errorf("sector: sensor %d has demand but is unreachable from head", v)
			}
			// Failed/stranded sensor with nothing to send: excluded from
			// the tree (parent stays -1) and from every sector.
			continue
		}
		// Candidate parents restricted to strictly lower levels so the
		// result is guaranteed to be a tree; sideways flow steps fall
		// back to the BFS parent.
		var choices []int
		for p := range cand[v] {
			if level[p] == level[v]-1 {
				choices = append(choices, p)
			}
		}
		sort.Ints(choices)
		var best int
		switch len(choices) {
		case 0:
			best = bfsParent[v]
		case 1:
			best = choices[0]
		default:
			// Flow-splitting sensor: choose the parent whose committed
			// path to the head has minimum max load.
			best = -1
			bestCost := -1
			for _, p := range choices {
				cost := 0
				if p != head {
					cost = pathMaxLoad(p)
				}
				if bestCost < 0 || cost < bestCost {
					best, bestCost = p, cost
				}
			}
		}
		parent[v] = best
		// Propagate v's subtree demand up the committed chain so later
		// flow-splitting decisions see current loads.
		for x := best; x != head; x = parent[x] {
			subtree[x] += subtree[v]
		}
	}
	if err := checkTree(parent, head); err != nil {
		return nil, err
	}
	return parent, nil
}

func checkTree(parent []int, head int) error {
	n := len(parent)
	for v := 0; v < n; v++ {
		if parent[v] < 0 {
			continue // excluded (unreachable, zero-demand) sensor
		}
		steps := 0
		for x := v; x != head; x = parent[x] {
			steps++
			if steps > n || parent[x] < 0 {
				return fmt.Errorf("sector: broken parent chain through sensor %d", v)
			}
		}
	}
	return nil
}

// TreeLoads returns each node's transmission load in the merged tree:
// its own demand plus everything it relays (the head's entry is the total
// demand it collects, not a transmission load).
func TreeLoads(parent []int, head int, demand []int) []int {
	n := len(parent)
	load := make([]int, n)
	copy(load, demand)
	// Push each sensor's demand up the chain.
	for v := 0; v < n; v++ {
		if v == head || parent[v] < 0 {
			continue
		}
		for x := parent[v]; ; x = parent[x] {
			load[x] += demand[v]
			if x == head {
				break
			}
		}
	}
	return load
}

// Branch is one first-level branch of the merged tree: a first-level
// sensor (Root) and all of its dependents.
type Branch struct {
	Root    int
	Members []int // includes Root, ascending
	Load    int   // the root's transmission load (= branch demand)
}

// Branches extracts the first-level branches of the merged tree.
func Branches(parent []int, head int, demand []int) []Branch {
	n := len(parent)
	load := TreeLoads(parent, head, demand)
	// Map each sensor to its first-level ancestor.
	rootOf := make([]int, n)
	for v := 0; v < n; v++ {
		if v == head || parent[v] < 0 {
			rootOf[v] = -1
			continue
		}
		x := v
		for parent[x] != head {
			x = parent[x]
		}
		rootOf[v] = x
	}
	members := make(map[int][]int)
	for v := 0; v < n; v++ {
		if v == head || rootOf[v] < 0 {
			continue
		}
		members[rootOf[v]] = append(members[rootOf[v]], v)
	}
	roots := make([]int, 0, len(members))
	for r := range members {
		roots = append(roots, r)
	}
	sort.Ints(roots)
	out := make([]Branch, 0, len(roots))
	for _, r := range roots {
		sort.Ints(members[r])
		out = append(out, Branch{Root: r, Members: members[r], Load: load[r]})
	}
	return out
}

// Options tunes the partition heuristic.
type Options struct {
	// Oracle, when non-nil, enforces the paper's third pairing rule: the
	// two first-level sensors must be able to overlap (one sending to the
	// head while the other receives). Nil skips the rule.
	Oracle radio.CompatibilityOracle
}

// BuildPartition runs the paper's heuristic: flow-merge the routes into a
// tree, make each first-level branch a sector, then pair branches under
// the three rules — (1) the branches are connected so load can shift
// toward the lighter root, (2) big branches pair with small ones, (3) the
// roots can overlap transmissions.
func BuildPartition(g *graph.Undirected, head int, routes map[int][]int, demand []int, opt Options) (*Partition, error) {
	parent, err := MergeToTree(g, head, routes, demand)
	if err != nil {
		return nil, err
	}
	branches := Branches(parent, head, demand)
	p := &Partition{Head: head, Parent: parent}
	if len(branches) <= 1 {
		for _, b := range branches {
			p.Sectors = append(p.Sectors, b.Members)
			p.Roots = append(p.Roots, []int{b.Root})
		}
		return p, nil
	}

	// Rule 2: consider branches from largest to smallest.
	order := make([]int, len(branches))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ba, bb := branches[order[a]], branches[order[b]]
		if len(ba.Members) != len(bb.Members) {
			return len(ba.Members) > len(bb.Members)
		}
		return ba.Root < bb.Root
	})
	paired := make([]bool, len(branches))
	for _, i := range order {
		if paired[i] {
			continue
		}
		// Find the smallest unpaired branch satisfying rules 1 and 3.
		best := -1
		for k := len(order) - 1; k >= 0; k-- {
			j := order[k]
			if j == i || paired[j] {
				continue
			}
			if !branchesConnected(g, branches[i], branches[j]) {
				continue
			}
			if opt.Oracle != nil && !rootsOverlap(opt.Oracle, head, branches[i], branches[j]) {
				continue
			}
			best = j
			break
		}
		paired[i] = true
		if best < 0 {
			p.Sectors = append(p.Sectors, branches[i].Members)
			p.Roots = append(p.Roots, []int{branches[i].Root})
			continue
		}
		paired[best] = true
		merged := append(append([]int(nil), branches[i].Members...), branches[best].Members...)
		sort.Ints(merged)
		p.Sectors = append(p.Sectors, merged)
		roots := []int{branches[i].Root, branches[best].Root}
		sort.Ints(roots)
		p.Roots = append(p.Roots, roots)
	}
	return p, nil
}

// branchesConnected implements rule 1: some edge joins the two branches,
// so traffic can be redirected between them.
func branchesConnected(g *graph.Undirected, a, b Branch) bool {
	inB := make(map[int]bool, len(b.Members))
	for _, v := range b.Members {
		inB[v] = true
	}
	for _, u := range a.Members {
		for _, w := range g.Neighbors(u) {
			if inB[w] {
				return true
			}
		}
	}
	return false
}

// rootsOverlap implements rule 3: while one root sends to the head, the
// other can receive from one of its branch members, and vice versa.
func rootsOverlap(o radio.CompatibilityOracle, head int, a, b Branch) bool {
	dir := func(sender, receiver Branch) bool {
		toHead := radio.Transmission{From: sender.Root, To: head}
		for _, v := range receiver.Members {
			if v == receiver.Root {
				continue
			}
			rx := radio.Transmission{From: v, To: receiver.Root}
			if o.Compatible([]radio.Transmission{toHead, rx}) {
				return true
			}
		}
		// A receiver branch with no members besides the root trivially
		// satisfies the rule (nothing to receive).
		return len(receiver.Members) == 1
	}
	return dir(a, b) && dir(b, a)
}

// PseudoRates returns the pseudo power consumption rate of every sensor
// under the partition: alpha*load + beta*|sector|, the paper's surrogate
// in which polling time is proportional to the sector's size. The head's
// entry is zero.
func PseudoRates(p *Partition, demand []int, alpha, beta float64) []float64 {
	loads := TreeLoads(p.Parent, p.Head, demand)
	rates := make([]float64, len(p.Parent))
	for _, sec := range p.Sectors {
		size := float64(len(sec))
		for _, v := range sec {
			rates[v] = alpha*float64(loads[v]) + beta*size
		}
	}
	return rates
}

// MaxPseudoRate returns the largest pseudo rate over all sensors — the
// quantity the optimal partition minimizes (CPAR's objective).
func MaxPseudoRate(p *Partition, demand []int, alpha, beta float64) float64 {
	max := 0.0
	for _, r := range PseudoRates(p, demand, alpha, beta) {
		if r > max {
			max = r
		}
	}
	return max
}
