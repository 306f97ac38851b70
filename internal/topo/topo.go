// Package topo builds cluster topologies for the two-layered heterogeneous
// network: a powerful cluster head whose broadcasts reach every sensor, and
// battery-limited sensors whose packets must be relayed hop by hop toward
// the head. It also models multi-cluster fields with Voronoi cluster
// forming and the inter-cluster adjacency graph used for channel coloring.
package topo

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/radio"
)

// Head is the node index of the cluster head in every cluster: node 0.
// Sensors are nodes 1..N.
const Head = 0

// Config describes one cluster to generate.
type Config struct {
	// Sensors is the number of basic sensor nodes (excluding the head).
	Sensors int
	// Side is the deployment square's side in meters; the head sits at
	// the center (the paper's setup).
	Side float64
	// SensorRange is the distance in meters at which a sensor's signal
	// meets the reception threshold.
	SensorRange float64
	// HeadRange is the head's transmission range; it should cover the
	// whole square so polling broadcasts reach every sensor.
	HeadRange float64
	// Prop is the propagation model; nil selects two-ray ground (the
	// paper's NS-2 choice).
	Prop radio.Propagation
	// MaxLinkLoss is the largest per-packet loss probability (from the
	// SNR-margin model, radio.Quality) a link may have and still count
	// as connectivity. The paper's head needs to know which sensors a
	// sensor "can reliably communicate with"; grey-zone links at the
	// very edge of the radio range are not reliable. Zero disables the
	// quality check (pure power-threshold connectivity).
	MaxLinkLoss float64
	// Seed drives the deployment randomness.
	Seed int64
}

// DefaultConfig returns the paper's simulation setup scaled to a cluster:
// sensors uniformly deployed in a square with the head at the center,
// two-ray ground propagation, and a sensor range that forces multi-hop
// relaying for the outer sensors.
//
// Antennas sit 0.5 m off the ground — sensor motes in a ground-monitoring
// deployment, not NS-2's default 1.5 m vehicles. This puts intra-cluster
// links beyond the two-ray crossover (~10 m) into the d^-4 regime, where
// the spatial reuse that multi-hop polling exploits actually exists; at
// 1.5 m the whole cluster would sit in the free-space d^-2 regime and the
// 10x capture ratio would forbid almost all concurrency.
func DefaultConfig(sensors int, seed int64) Config {
	prop := radio.NewTwoRay()
	prop.Ht, prop.Hr = 0.5, 0.5
	return Config{
		Sensors:     sensors,
		Side:        100,
		SensorRange: 30,
		HeadRange:   150,
		Prop:        prop,
		MaxLinkLoss: 0.05,
		Seed:        seed,
	}
}

// Cluster is one generated cluster: the radio medium (node 0 is the head),
// the connectivity graph, and per-sensor hop levels.
type Cluster struct {
	Cfg Config
	Med *radio.Medium
	// G is the connectivity graph over nodes 0..Sensors where an edge
	// means the two nodes reliably hear each other. Sensor-head edges
	// exist only when the *sensor's* signal reaches the head (the head
	// always reaches the sensor; heterogeneity makes the reverse the
	// binding constraint).
	G *graph.Undirected
	// Level[v] is v's hop count to the head (Level[Head] = 0);
	// unreachable sensors hold -1.
	Level []int
	// rev counts connectivity rebuilds; see ConnectivityRev.
	rev uint64
}

// ConnectivityRev returns a revision counter that changes whenever a
// connectivity rebuild (initial build, MarkFailedBatch, RefreshConnectivity)
// actually changes the graph. Plan caches key on it: as long as the
// revision is unchanged, G and Level are unchanged and a routing plan
// computed against them remains valid. A shadowing shift that flips no
// link leaves the revision alone, so quiet clusters keep hitting their
// plan cache.
func (c *Cluster) ConnectivityRev() uint64 { return c.rev }

// Build generates a cluster from cfg. The deployment is retried (with
// derived seeds) until every sensor has a relaying path to the head, so
// callers always receive a connected cluster; an error is returned if no
// connected deployment is found within a generous retry budget.
func Build(cfg Config) (*Cluster, error) {
	if cfg.Sensors < 0 {
		return nil, fmt.Errorf("topo: negative sensor count %d", cfg.Sensors)
	}
	if cfg.Side <= 0 || cfg.SensorRange <= 0 || cfg.HeadRange <= 0 {
		return nil, fmt.Errorf("topo: non-positive dimensions in %+v", cfg)
	}
	prop := cfg.Prop
	if prop == nil {
		prop = radio.NewTwoRay()
	}
	const retries = 200
	for attempt := 0; attempt < retries; attempt++ {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(attempt)*1_000_003))
		c := build(cfg, prop, rng)
		if c.connected() {
			return c, nil
		}
	}
	return nil, fmt.Errorf("topo: no connected deployment for %d sensors in %.0fm square (range %.0fm) after %d tries",
		cfg.Sensors, cfg.Side, cfg.SensorRange, retries)
}

func build(cfg Config, prop radio.Propagation, rng *rand.Rand) *Cluster {
	sq := geom.Square(cfg.Side)
	pos := make([]geom.Point, 0, cfg.Sensors+1)
	pos = append(pos, sq.Center())
	pos = append(pos, geom.UniformDeploy(rng, sq, cfg.Sensors)...)

	med := radio.NewMedium(prop, pos)
	applyPowers(med, cfg, prop)
	c := &Cluster{Cfg: cfg, Med: med}
	c.rebuildGraph()
	return c
}

// applyPowers sizes transmit powers for the medium. When a reliability bar
// is set, the *reliable* range (loss <= MaxLinkLoss) equals the configured
// range, not merely the decode threshold.
func applyPowers(med *radio.Medium, cfg Config, prop radio.Propagation) {
	target := radio.DefaultRxThreshold
	if cfg.MaxLinkLoss > 0 && cfg.MaxLinkLoss < 1 {
		if marginDB := radio.MarginForLoss(cfg.MaxLinkLoss); marginDB > 0 {
			target *= math.Pow(10, marginDB/10)
		}
	}
	med.SetTxPower(Head, radio.TxPowerForRange(prop, cfg.HeadRange, target))
	sensorPower := radio.TxPowerForRange(prop, cfg.SensorRange, target)
	for v := 1; v < med.N(); v++ {
		med.SetTxPower(v, sensorPower)
	}
}

// rebuildGraph recomputes the connectivity graph and levels from the
// medium. A link counts only when both directions decode and, when
// MaxLinkLoss is set, both directions are reliable enough.
//
// Instead of scanning all pairs, it walks the medium's sparse neighbor
// rows: a receiver absent from u's row lies beyond u's materialization
// cutoff, so u's signal there is below the pair floor — a margin under
// DefaultRxThreshold even with the shadowing headroom — and the link
// cannot be InRange, let alone Reliable. Each unordered pair is visited
// at most once (v > u within u's row), which lets the insert skip
// AddEdge's duplicate scan. The revision is bumped only when the rebuild actually
// changed the graph.
func (c *Cluster) rebuildGraph() {
	n := c.Med.N()
	g := graph.NewUndirected(n)
	for u := 1; u < n; u++ {
		// Sensor-head edge: the sensor must reach the head (the head's
		// big transmit power makes the reverse direction a given).
		if c.Reliable(u, Head) {
			g.AddEdgeUnique(u, Head)
		}
		for _, v32 := range c.Med.Neighbors(u) {
			v := int(v32)
			if v <= u { // each pair once; also skips the head edge redone above
				continue
			}
			if c.Reliable(u, v) && c.Reliable(v, u) {
				g.AddEdgeUnique(u, v)
			}
		}
	}
	if c.G != nil && c.G.Equal(g) {
		return // nothing flipped: keep G, Level, and the revision
	}
	c.G = g
	c.Level = g.BFSLevels(Head)
	c.rev++
}

// MarkFailedBatch takes sensors out of the network — battery death or
// hardware failure — by zeroing their transmit power and rebuilding the
// connectivity graph and levels once for the whole batch. Sensors that
// relied on a victim for relaying may become unreachable; callers re-plan
// routing afterwards. The graph and levels do not depend on how deaths
// are batched or ordered. An empty batch is a no-op.
func (c *Cluster) MarkFailedBatch(victims []int) {
	if len(victims) == 0 {
		return
	}
	for _, v := range victims {
		if v == Head {
			panic("topo: the cluster head cannot fail (it is mains powered)")
		}
		c.Med.SetTxPower(v, 0)
	}
	c.rebuildGraph()
}

// RefreshConnectivity recomputes the medium's materialized link powers
// from the (possibly mutated) propagation model and rebuilds the
// connectivity graph and hop levels — the companion to MarkFailedBatch for
// environmental churn. Callers mutate the propagation model in place
// (e.g. install a new ShadowDB on a shared LogDistance) and then call
// this; failed sensors stay failed because their transmit power remains
// zero (their rows are empty and cost nothing). Cost is O(materialized
// links + graph rebuild), not O(N^2); if no link flips, ConnectivityRev
// is left unchanged.
func (c *Cluster) RefreshConnectivity() {
	c.Med.Refresh()
	c.rebuildGraph()
}

// ReachableInto appends the reachable sensors (ascending) to buf[:0] and
// returns the result, letting per-epoch callers reuse one scratch slice
// instead of allocating per draw.
func (c *Cluster) ReachableInto(buf []int) []int {
	buf = buf[:0]
	for v := 1; v < c.Med.N(); v++ {
		if c.Level[v] > 0 {
			buf = append(buf, v)
		}
	}
	return buf
}

// ReachableCount returns how many sensors currently have a relaying path
// to the head, without materializing the id slice.
func (c *Cluster) ReachableCount() int {
	n := 0
	for v := 1; v < c.Med.N(); v++ {
		if c.Level[v] > 0 {
			n++
		}
	}
	return n
}

// Reliable reports whether the directed link tx -> rx decodes and meets
// the cluster's link-quality bar (Config.MaxLinkLoss).
func (c *Cluster) Reliable(tx, rx int) bool {
	if !c.Med.InRange(tx, rx) {
		return false
	}
	if c.Cfg.MaxLinkLoss <= 0 {
		return true
	}
	return c.Med.Quality(tx, rx).LossProb <= c.Cfg.MaxLinkLoss
}

func (c *Cluster) connected() bool {
	for v := 1; v < c.Med.N(); v++ {
		if c.Level[v] < 0 {
			return false
		}
	}
	return true
}

// Sensors returns the number of sensors in the cluster.
func (c *Cluster) Sensors() int { return c.Med.N() - 1 }

// MaxLevel returns the largest hop count of any sensor.
func (c *Cluster) MaxLevel() int {
	max := 0
	for _, l := range c.Level {
		if l > max {
			max = l
		}
	}
	return max
}

// DiscoverConnectivity simulates the initialization protocol of Section
// V-B: each sensor broadcasts in turn while the head later polls every
// sensor for who it heard. It returns the discovered graph — identical to
// c.G by construction — and the number of protocol messages spent
// (n broadcasts + n report polls + n reports), demonstrating the O(n)
// cost the paper claims.
func (c *Cluster) DiscoverConnectivity() (*graph.Undirected, int) {
	n := c.Med.N()
	heard := make([]map[int]bool, n)
	for v := range heard {
		heard[v] = make(map[int]bool)
	}
	messages := 0
	// Each sensor (and the head) broadcasts in turn; everyone that hears
	// it reliably records the hearing. (The reliability bar stands in
	// for the repeated test transmissions a real head would use to weed
	// out grey links.)
	for tx := 0; tx < n; tx++ {
		messages++
		for rx := 0; rx < n; rx++ {
			if tx != rx && c.Reliable(tx, rx) {
				heard[rx][tx] = true
			}
		}
	}
	// The head polls each sensor for its hearing list (poll + report).
	messages += 2 * (n - 1)
	g := graph.NewUndirected(n)
	for u := 1; u < n; u++ {
		if heard[Head][u] {
			g.AddEdge(u, Head)
		}
		for v := u + 1; v < n; v++ {
			if heard[u][v] && heard[v][u] {
				g.AddEdge(u, v)
			}
		}
	}
	return g, messages
}

// DiscoverConnectivityLossy simulates the same initialization protocol on
// a lossy channel: every node broadcasts once per round, each copy being
// received with the link's physical success probability (radio.Quality),
// and the head keeps the links heard in a majority of rounds. Grey-zone
// links fail the vote, reliable ones pass, so with a few rounds the result
// converges to the reliable connectivity graph. It returns the discovered
// graph and the message count (rounds*n broadcasts + 2(n-1) reports).
func (c *Cluster) DiscoverConnectivityLossy(rounds int, seed int64) (*graph.Undirected, int) {
	if rounds < 1 {
		panic("topo: discovery needs at least one round")
	}
	n := c.Med.N()
	rng := rand.New(rand.NewSource(seed))
	votes := make([]map[int]int, n) // votes[rx][tx] = rounds heard
	for v := range votes {
		votes[v] = make(map[int]int)
	}
	messages := 0
	for round := 0; round < rounds; round++ {
		for tx := 0; tx < n; tx++ {
			messages++
			for rx := 0; rx < n; rx++ {
				if tx == rx || !c.Med.InRange(tx, rx) {
					continue
				}
				if rng.Float64() >= c.Med.Quality(tx, rx).LossProb {
					votes[rx][tx]++
				}
			}
		}
	}
	messages += 2 * (n - 1)
	need := rounds/2 + 1
	heard := func(rx, tx int) bool { return votes[rx][tx] >= need }
	g := graph.NewUndirected(n)
	for u := 1; u < n; u++ {
		if heard(Head, u) {
			g.AddEdge(u, Head)
		}
		for v := u + 1; v < n; v++ {
			if heard(u, v) && heard(v, u) {
				g.AddEdge(u, v)
			}
		}
	}
	return g, messages
}

// Field is a multi-cluster deployment: several heads, sensors assigned to
// clusters by Voronoi cells (Section V-A).
type Field struct {
	Heads   []geom.Point
	Sensors []geom.Point
	// Assign[i] is the cluster index of sensor i.
	Assign []int
}

// BuildField deploys heads and sensors uniformly in a square and assigns
// each sensor to its nearest head.
func BuildField(seed int64, side float64, heads, sensors int) *Field {
	rng := rand.New(rand.NewSource(seed))
	sq := geom.Square(side)
	f := &Field{
		Heads:   geom.UniformDeploy(rng, sq, heads),
		Sensors: geom.UniformDeploy(rng, sq, sensors),
	}
	f.Assign = geom.VoronoiAssign(f.Sensors, f.Heads)
	return f
}

// Fingerprint returns a deterministic hash of the field's geometry and
// Voronoi assignment. Checkpoints of a field simulation store it so a
// resume against a different deployment is rejected instead of silently
// producing garbage.
func (f *Field) Fingerprint() uint64 {
	const (
		offset = 14695981039346656037 // FNV-1a
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= prime
		}
	}
	point := func(p geom.Point) {
		mix(math.Float64bits(p.X))
		mix(math.Float64bits(p.Y))
	}
	mix(uint64(len(f.Heads)))
	for _, p := range f.Heads {
		point(p)
	}
	mix(uint64(len(f.Sensors)))
	for _, p := range f.Sensors {
		point(p)
	}
	for _, a := range f.Assign {
		mix(uint64(uint32(a)))
	}
	return h
}

// ClusterFingerprint returns a deterministic hash of one cluster's slice
// of the deployment: the head position plus the positions and field
// indices of the sensors Voronoi-assigned to it. Distributed shard
// handoffs carry it so a checkpoint for cluster k of one field can never
// be adopted into cluster k of another (or into a different cluster of
// the same field) without being rejected.
func (f *Field) ClusterFingerprint(k int) uint64 {
	const (
		offset = 14695981039346656037 // FNV-1a
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= prime
		}
	}
	point := func(p geom.Point) {
		mix(math.Float64bits(p.X))
		mix(math.Float64bits(p.Y))
	}
	mix(uint64(uint32(k)))
	if k < 0 || k >= len(f.Heads) {
		return h
	}
	point(f.Heads[k])
	for i, p := range f.Sensors {
		if f.Assign[i] == k {
			mix(uint64(uint32(i)))
			point(p)
		}
	}
	return h
}

// BuildCluster materializes field cluster k as a Cluster: the head at its
// actual position plus the sensors Voronoi-assigned to it. Unlike Build,
// no connectivity retry is possible (the positions are fixed), so sensors
// out of multi-hop reach simply come out with Level -1 and are skipped by
// the cluster runtime.
func (f *Field) BuildCluster(k int, cfg Config) (*Cluster, error) {
	if k < 0 || k >= len(f.Heads) {
		return nil, fmt.Errorf("topo: cluster %d out of range [0,%d)", k, len(f.Heads))
	}
	prop := cfg.Prop
	if prop == nil {
		prop = radio.NewTwoRay()
	}
	pos := []geom.Point{f.Heads[k]}
	for i, p := range f.Sensors {
		if f.Assign[i] == k {
			pos = append(pos, p)
		}
	}
	med := radio.NewMedium(prop, pos)
	applyPowers(med, cfg, prop)
	c := &Cluster{Cfg: cfg, Med: med}
	c.Cfg.Sensors = med.N() - 1
	c.rebuildGraph()
	return c, nil
}

// ClusterGraph returns the inter-cluster interference graph: clusters are
// adjacent when a sensor of one lies within interferenceRange of a sensor
// of the other, so their transmissions can collide at the boundary
// (Section V-G). Coloring this graph assigns radio channels.
//
// Sensors are bucketed into an interferenceRange-sized grid so only pairs
// in adjacent cells are tested — O(sensors x local density) instead of
// the all-pairs scan, which is what keeps 100k-sensor field construction
// (one per distributed worker) off the O(N^2) cliff. The candidate list
// for each sensor is sorted before edges are added, so the edge sequence
// — and therefore the coloring and every downstream channel assignment —
// is exactly what the all-pairs loop produced.
func (f *Field) ClusterGraph(interferenceRange float64) *graph.Undirected {
	g := graph.NewUndirected(len(f.Heads))
	if len(f.Sensors) == 0 || interferenceRange <= 0 {
		return g
	}
	b := geom.Rect{MinX: f.Sensors[0].X, MinY: f.Sensors[0].Y, MaxX: f.Sensors[0].X, MaxY: f.Sensors[0].Y}
	for _, p := range f.Sensors[1:] {
		b.MinX = math.Min(b.MinX, p.X)
		b.MinY = math.Min(b.MinY, p.Y)
		b.MaxX = math.Max(b.MaxX, p.X)
		b.MaxY = math.Max(b.MaxY, p.Y)
	}
	cell := interferenceRange
	cols := int(b.Width()/cell) + 1
	rows := int(b.Height()/cell) + 1
	cellOf := func(p geom.Point) (int, int) {
		cx := int((p.X - b.MinX) / cell)
		cy := int((p.Y - b.MinY) / cell)
		if cx >= cols {
			cx = cols - 1
		}
		if cy >= rows {
			cy = rows - 1
		}
		return cx, cy
	}
	buckets := make([][]int32, cols*rows)
	for i, p := range f.Sensors {
		cx, cy := cellOf(p)
		buckets[cy*cols+cx] = append(buckets[cy*cols+cx], int32(i))
	}
	var cand []int32
	for i := 0; i < len(f.Sensors); i++ {
		cx, cy := cellOf(f.Sensors[i])
		cand = cand[:0]
		for dy := -1; dy <= 1; dy++ {
			y := cy + dy
			if y < 0 || y >= rows {
				continue
			}
			for dx := -1; dx <= 1; dx++ {
				x := cx + dx
				if x < 0 || x >= cols {
					continue
				}
				for _, j := range buckets[y*cols+x] {
					if int(j) > i {
						cand = append(cand, j)
					}
				}
			}
		}
		slices.Sort(cand)
		ci := f.Assign[i]
		for _, j32 := range cand {
			j := int(j32)
			if ci == f.Assign[j] {
				continue
			}
			if f.Sensors[i].Dist(f.Sensors[j]) <= interferenceRange {
				g.AddEdge(ci, f.Assign[j])
			}
		}
	}
	return g
}

// ChannelAssignment colors the cluster graph with the smallest-degree-last
// heuristic and returns the per-cluster channel plus the channel count.
// For the planar-like Voronoi adjacency this uses at most 6 channels, per
// the paper's Section V-G.
func (f *Field) ChannelAssignment(interferenceRange float64) ([]int, int) {
	return graph.SixColoring(f.ClusterGraph(interferenceRange))
}
