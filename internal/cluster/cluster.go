// Package cluster is the slot-level runtime of one polling cluster: it
// orchestrates the duty cycle the paper describes in Section II — wake-up
// broadcast, acknowledgment collection (Section V-F, via weighted set
// cover over relaying paths), the pipelined data polling phase (the core
// greedy scheduler), and the sleep broadcast — and accounts every sensor's
// radio time and energy. Sector mode (Section IV) wakes sectors in turn so
// each sensor idles only through its own sector's window.
package cluster

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/radio"
	"repro/internal/routing"
	"repro/internal/sector"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Params configures a cluster runtime.
type Params struct {
	// M is the compatibility degree: the head only knows interference
	// patterns of groups of at most M transmissions (paper: 2 or 3).
	M int
	// BandwidthBps is the radio bit rate (paper: 200 kbps).
	BandwidthBps float64
	// DataBytes is the fixed data packet size (paper: 80 bytes).
	DataBytes int
	// PollBytes sizes the head's per-slot polling broadcast, which names
	// the slot's senders and receivers.
	PollBytes int
	// AckBytes sizes the acknowledgment packets of the wake-up phase.
	AckBytes int
	// Cycle is the period between wake-ups.
	Cycle time.Duration
	// RateBps is each sensor's data generation rate in bytes/second.
	RateBps float64
	// LossProb is the per-transmission loss probability.
	LossProb float64
	// Seed drives workload and loss randomness.
	Seed int64
	// Energy is the sensor power model.
	Energy energy.Model
	// UseSectors enables sector partitioning.
	UseSectors bool
	// Search picks the routing delta search strategy.
	Search routing.DeltaSearch
	// AllowDelay switches the scheduler to the delay-allowed variant
	// (ablation; Theorem 2 says it cannot help).
	AllowDelay bool
	// EarlySleep releases a sensor to sleep as soon as all packets it
	// sources or relays have been received — the Section IV observation
	// ("if a sensor will not be involved in transmissions occurred
	// later, it can enter the sleep mode immediately") that motivates
	// sectors. Idealized: the head signals the release in its poll
	// broadcasts.
	EarlySleep bool
	// LinkLoss derives per-hop loss probabilities from each link's SNR
	// margin (radio.Quality) instead of the uniform LossProb; LossProb
	// still applies as a floor.
	LinkLoss bool
	// SourceRouting makes every data packet carry its full relaying path
	// in a header (Section V-C); the data slot grows by the longest
	// route's header. The default is the equivalent one-hop dependent
	// table, which costs sensor memory instead of airtime.
	SourceRouting bool
	// PoissonTraffic replaces periodic CBR sampling with Poisson packet
	// arrivals of the same mean rate (event-driven sensing).
	PoissonTraffic bool
}

// DefaultParams returns the paper-flavored defaults.
func DefaultParams() Params {
	return Params{
		M:            3,
		BandwidthBps: 200_000,
		DataBytes:    80,
		PollBytes:    80, // the slot assignment lists are packet-sized
		AckBytes:     16,
		Cycle:        4 * time.Second,
		RateBps:      20,
		LossProb:     0.02,
		Energy:       energy.DefaultModel(),
	}
}

// Sentinel validation errors. Validate wraps them with the offending
// values, so callers branch with errors.Is while messages stay specific.
var (
	// ErrBadM flags a compatibility degree below 1.
	ErrBadM = errors.New("compatibility degree M must be >= 1")
	// ErrBadRadio flags non-positive bandwidth or packet sizes.
	ErrBadRadio = errors.New("non-positive radio parameters")
	// ErrBadCycle flags a non-positive cycle period.
	ErrBadCycle = errors.New("non-positive cycle")
	// ErrBadRate flags a negative data generation rate.
	ErrBadRate = errors.New("negative data rate")
	// ErrBadLoss flags a loss probability outside [0, 1).
	ErrBadLoss = errors.New("loss probability outside [0, 1)")
)

// Validate checks the parameters, returning the first violation wrapped
// around its sentinel (ErrBadM, ErrBadRadio, ...). NewRunner,
// RunLongitudinal and ReplaySchedule surface these errors unchanged.
func (p Params) Validate() error {
	if p.M < 1 {
		return fmt.Errorf("cluster: M = %d: %w", p.M, ErrBadM)
	}
	if p.BandwidthBps <= 0 || p.DataBytes <= 0 || p.PollBytes <= 0 || p.AckBytes <= 0 {
		return fmt.Errorf("cluster: bandwidth %g Bps, data %d B, poll %d B, ack %d B: %w",
			p.BandwidthBps, p.DataBytes, p.PollBytes, p.AckBytes, ErrBadRadio)
	}
	if p.Cycle <= 0 {
		return fmt.Errorf("cluster: cycle %v: %w", p.Cycle, ErrBadCycle)
	}
	if p.RateBps < 0 {
		return fmt.Errorf("cluster: rate %g Bps: %w", p.RateBps, ErrBadRate)
	}
	if p.LossProb < 0 || p.LossProb >= 1 {
		return fmt.Errorf("cluster: loss probability %g: %w", p.LossProb, ErrBadLoss)
	}
	return nil
}

func (p Params) txTime(bytes int) time.Duration {
	return time.Duration(float64(bytes*8) / p.BandwidthBps * float64(time.Second))
}

// ackSlot is one acknowledgment-collection slot.
func (p Params) ackSlot() time.Duration { return p.txTime(p.PollBytes) + p.txTime(p.AckBytes) }

// Runner simulates one cluster cycle by cycle.
type Runner struct {
	C    *topo.Cluster
	P    Params
	Plan *routing.Plan
	// Part is the sector partition (nil without sectors).
	Part   *sector.Partition
	Oracle *radio.TestedOracle
	// testsBase is Oracle.Tests when the runner was built, so
	// CycleResult.OracleTests counts this runner's tests only.
	testsBase int
	gen       workload.Generator
	demand    []int
	// groups lists the sensor groups that wake in turn: one group of all
	// sensors without sectors, or one per sector.
	groups [][]int
	// groupRoutes[g][v] is sensor v's relaying path when group g is up.
	groupRoutes []map[int][]int
	// Unreachable lists sensors without a relaying path to the head
	// (failed sensors, or sensors stranded by failures); they take no
	// part in cycles.
	Unreachable []int
	// Trace, when non-nil, records every data-phase transmission, loss
	// and arrival of subsequent cycles for offline analysis.
	Trace *trace.Log
	// Obs, when non-nil, receives per-cycle metrics after every RunCycle:
	// phase durations, slot counts, re-polls, losses, packets and energy
	// drawn per radio state (series named by the Metric* constants). A nil
	// Obs costs one branch per cycle.
	Obs      obs.Observer
	cycleIdx int
	// scr holds the demand, group and polling-phase buffers; Trace copies
	// what it records out of them.
	scr *RunnerScratch
}

// NewRunner plans routing (and sectors when enabled) for the cluster and
// returns a ready runtime.
func NewRunner(c *topo.Cluster, p Params) (*Runner, error) {
	return NewRunnerScratch(c, p, nil, nil)
}

// NewRunnerScratch is NewRunner with an optional routing plan cache and
// a per-cluster RunnerScratch. When cache holds a plan for the cluster's
// current connectivity revision and demand, the flow solve is skipped and
// the cached plan reused. The plan is a pure function of (connectivity,
// demand, search), so a hit changes nothing about the runner's behavior —
// cached and freshly solved runners are byte-identical. A nil cache plans
// from scratch every time. The runner keeps its buffers in the scratch and
// is valid until the next runner is built with the same scratch; a nil
// scratch is replaced by a zero-value one owned by the runner, which
// behaves identically to a reused one.
//
// The scratch also keeps what the head learned. Its tested oracle keeps
// its verdicts while the cluster's medium, the medium's PowerRev and M
// are those of the previous build: a verdict is a function of the
// medium's powers alone, and radio.Medium.PowerRev moves whenever one
// may change. With the plan pointer unchanged too, the sector partition,
// its groups and their routes are kept as well: the partition is a
// function of the plan, the connectivity the plan was solved on, the
// demand and the verdicts, and the runner only reads it after the build.
// Anything else resets the oracle and rebuilds the partition, so kept
// and rebuilt runners behave identically.
func NewRunnerScratch(c *topo.Cluster, p Params, cache *routing.PlanCache, scr *RunnerScratch) (*Runner, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := c.Sensors()
	cbr := workload.NewCBR(n, p.RateBps, p.DataBytes)
	var gen workload.Generator = cbr
	if p.PoissonTraffic {
		gen = workload.NewPoisson(n, p.RateBps, p.DataBytes, p.Seed^0x50a550a5)
	}
	if scr == nil {
		scr = &RunnerScratch{}
	}
	scr.demand = slices.Grow(scr.demand[:0], n+1)[:n+1]
	clear(scr.demand)
	demand := scr.demand
	scr.unreachable = scr.unreachable[:0]
	for v := 1; v <= n; v++ {
		if c.Level[v] > 0 {
			demand[v] = cbr.PlanningDemand(p.Cycle)
		} else {
			// Failed or stranded sensors (topo.Cluster.MarkFailed) take
			// no part in the cluster.
			scr.unreachable = append(scr.unreachable, v)
		}
	}
	plan := cache.Lookup(c.ConnectivityRev(), demand, p.Search)
	if plan == nil {
		var err error
		plan, err = routing.BalancedPathsWS(&scr.ws, c.G, topo.Head, demand, p.Search)
		if err != nil {
			return nil, fmt.Errorf("cluster: routing failed: %w", err)
		}
		cache.Store(c.ConnectivityRev(), demand, p.Search, plan)
	}
	learned := scr.oracle != nil && scr.med == c.Med && scr.powerRev == c.Med.PowerRev() && scr.m == p.M
	switch {
	case scr.oracle == nil:
		scr.oracle = radio.NewTestedOracle(radio.SINROracle{M: c.Med}, p.M)
	case !learned:
		scr.oracle.Reset(radio.SINROracle{M: c.Med}, p.M)
	}
	if !learned || scr.plan != plan {
		scr.part = nil
	}
	scr.med, scr.powerRev, scr.m, scr.plan = c.Med, c.Med.PowerRev(), p.M, plan
	r := &Runner{
		C:           c,
		P:           p,
		Plan:        plan,
		Oracle:      scr.oracle,
		testsBase:   scr.oracle.Tests,
		gen:         gen,
		demand:      demand,
		Unreachable: scr.unreachable,
		scr:         scr,
	}
	if p.UseSectors {
		if scr.part == nil {
			part, err := sector.BuildPartition(c.G, topo.Head, plan.CycleRoutes(0), demand,
				sector.Options{Oracle: r.Oracle})
			if err != nil {
				return nil, fmt.Errorf("cluster: sector partition failed: %w", err)
			}
			scr.groups, scr.groupRoutes = scr.groups[:0], nil
			for _, sec := range part.Sectors {
				scr.groups = append(scr.groups, sec)
				routes := make(map[int][]int, len(sec))
				for _, v := range sec {
					routes[v] = treePath(part.Parent, v, topo.Head)
				}
				scr.groupRoutes = append(scr.groupRoutes, routes)
			}
			scr.part = part
		}
		r.Part, r.groups, r.groupRoutes = scr.part, scr.groups, scr.groupRoutes
	} else {
		scr.part = nil // scr.groups is about to hold the all-sensors group
		scr.all = scr.all[:0]
		for v := 1; v <= n; v++ {
			if c.Level[v] > 0 {
				scr.all = append(scr.all, v)
			}
		}
		scr.groups = append(scr.groups[:0], scr.all)
		r.groups = scr.groups
		r.groupRoutes = nil // resolved per cycle from the rotation
	}
	return r, nil
}

func treePath(parent []int, v, head int) []int {
	path := []int{v}
	for x := v; x != head; {
		x = parent[x]
		path = append(path, x)
	}
	return path
}

// CycleResult reports one duty cycle.
type CycleResult struct {
	// Offered and Delivered count data packets; polling delivers all of
	// them whenever the duty fits in the cycle.
	Offered, Delivered int
	// AckSlots and DataSlots are summed over groups.
	AckSlots, DataSlots int
	// Duty is the total awake span of the cluster (sum of group windows).
	Duty time.Duration
	// PhaseWake, PhaseAck, PhaseData and PhaseSleep decompose Duty into
	// the duty cycle's four phases, summed over groups: the wake-up
	// broadcast, acknowledgment collection, the pipelined data polling,
	// and the sleep broadcast.
	PhaseWake, PhaseAck, PhaseData, PhaseSleep time.Duration
	// Fits reports whether the duty fit into the cycle; when false the
	// cluster is over capacity and Delivered is scaled down.
	Fits bool
	// Retries counts loss-induced re-polls.
	Retries int
	// Profiles[v] is sensor v's radio time budget this cycle (index 0 is
	// the mains-powered head and is left zero).
	Profiles []energy.CycleProfile
	// ActiveFraction is the mean per-sensor awake fraction — the paper's
	// Fig. 7(a) metric.
	ActiveFraction float64
	// OracleTests is the number of interference groups the head has
	// tested since this runner was built, partition included (Section
	// IV's sector benefit). Groups it already knew from an earlier runner
	// on the same scratch are not tested again and do not count.
	OracleTests int
}

// RunCycle simulates the next duty cycle.
func (r *Runner) RunCycle() (*CycleResult, error) {
	p := r.P
	n := r.C.Sensors()
	idx := r.cycleIdx
	r.cycleIdx++

	packets := r.gen.NextCycle(p.Cycle)
	for _, v := range r.Unreachable {
		packets[v-1] = 0 // failed sensors generate nothing
	}
	res := &CycleResult{
		Profiles: make([]energy.CycleProfile, n+1),
		Fits:     true,
	}
	for i := range res.Profiles {
		res.Profiles[i].Cycle = p.Cycle
	}
	for _, k := range packets {
		res.Offered += k
	}

	var rotation map[int][]int
	if r.Part == nil {
		rotation = r.Plan.CycleRoutes(idx)
	}

	loss := core.LossFn(nil)
	switch {
	case p.LinkLoss:
		med := r.C.Med
		floor := p.LossProb
		loss = core.ProbLoss(p.Seed+int64(idx)*7919, func(tx radio.Transmission) float64 {
			if q := med.Quality(tx.From, tx.To).LossProb; q > floor {
				return q
			}
			return floor
		})
	case p.LossProb > 0:
		loss = core.RandomLoss(p.Seed+int64(idx)*7919, p.LossProb)
	}

	for g, group := range r.groups {
		routes := rotation
		if r.Part != nil {
			routes = r.groupRoutes[g]
		}
		window, err := r.runGroup(group, routes, packets, loss, res)
		if err != nil {
			return nil, err
		}
		res.Duty += window
	}
	res.Delivered = res.Offered
	if res.Duty > p.Cycle {
		res.Fits = false
		res.Delivered = int(float64(res.Offered) * float64(p.Cycle) / float64(res.Duty))
	}
	// Active fraction: mean over sensors of their own awake window.
	sum := 0.0
	for v := 1; v <= n; v++ {
		sum += res.Profiles[v].ActiveFraction()
	}
	if n > 0 {
		res.ActiveFraction = sum / float64(n)
	}
	res.OracleTests = r.Oracle.Tests - r.testsBase
	if r.Obs != nil {
		r.emit(res)
	}
	return res, nil
}

// runGroup executes one group's window: wake broadcast, ack collection,
// data polling, sleep broadcast. It fills in the group's sensor profiles
// and returns the window length.
func (r *Runner) runGroup(group []int, routes map[int][]int, packets []int,
	loss core.LossFn, res *CycleResult) (time.Duration, error) {
	p := r.P
	scr := r.scr

	// --- acknowledgment collection (Section V-F) ---
	ackReqs, err := r.ackRequests(group, routes)
	if err != nil {
		return 0, err
	}
	ackSched, ackStats, err := core.Greedy(ackReqs, core.Options{
		Oracle: r.Oracle, Loss: loss, AllowDelay: p.AllowDelay, Scratch: &scr.ack,
	})
	if err != nil {
		return 0, fmt.Errorf("cluster: ack polling failed: %w", err)
	}

	// --- data polling ---
	dataReqs := scr.dataReqs[:0]
	id := 0
	for _, v := range group {
		route, ok := routes[v]
		if !ok {
			return 0, fmt.Errorf("cluster: sensor %d has no route", v)
		}
		for k := 0; k < packets[v-1]; k++ {
			id++
			dataReqs = append(dataReqs, core.Request{ID: id, Route: route})
		}
	}
	scr.dataReqs = dataReqs
	dataSched, dataStats, err := core.Greedy(dataReqs, core.Options{
		Oracle: r.Oracle, Loss: loss, AllowDelay: p.AllowDelay, Scratch: &scr.data,
	})
	if err != nil {
		return 0, fmt.Errorf("cluster: data polling failed: %w", err)
	}

	ackSlots, dataSlots := ackSched.Makespan(), dataSched.Makespan()
	res.AckSlots += ackSlots
	res.DataSlots += dataSlots
	res.Retries += ackStats.Retries + dataStats.Retries

	pollT := p.txTime(p.PollBytes)
	ackT := p.txTime(p.AckBytes)
	// Source routing grows every data packet by the group's longest
	// route header; the slot must fit the largest packet.
	dataBytes := p.DataBytes
	if p.SourceRouting {
		maxRoute := 0
		for _, v := range group {
			if l := len(routes[v]); l > maxRoute {
				maxRoute = l
			}
		}
		dataBytes += routing.SourceRouteBytes(maxRoute)
	}
	dataT := p.txTime(dataBytes)
	dataSlotDur := pollT + dataT
	ackSlotDur := p.ackSlot()

	if r.Trace != nil {
		r.Trace.AppendSchedule(r.cycleIdx-1, dataSched, dataReqs, loss)
	}

	// Window: wake broadcast + ack slots + data slots + sleep broadcast.
	window := pollT + time.Duration(ackSlots)*ackSlotDur +
		time.Duration(dataSlots)*dataSlotDur + pollT
	res.PhaseWake += pollT
	res.PhaseAck += time.Duration(ackSlots) * ackSlotDur
	res.PhaseData += time.Duration(dataSlots) * dataSlotDur
	res.PhaseSleep += pollT

	// Per-sensor accounting. By default every group sensor is awake for
	// the whole window, receiving every head broadcast (wake, per-slot
	// polls, sleep), transmitting/receiving its scheduled packets, and
	// idling the rest. With EarlySleep the head releases a sensor right
	// after its last involvement in the data phase (or right after the
	// ack phase if it has nothing to send or relay).
	for _, v := range group {
		prof := &res.Profiles[v]
		awake := window
		polls := ackSlots + dataSlots + 2
		if p.EarlySleep {
			lastData, active := dataStats.LastActive[v]
			if !active {
				lastData = -1
			}
			awake = pollT + time.Duration(ackSlots)*ackSlotDur +
				time.Duration(lastData+1)*dataSlotDur
			polls = 1 + ackSlots + lastData + 1
		}
		tx := time.Duration(dataStats.TxCount[v])*dataT + time.Duration(ackStats.TxCount[v])*ackT
		rx := time.Duration(dataStats.RxCount[v])*dataT + time.Duration(ackStats.RxCount[v])*ackT +
			time.Duration(polls)*pollT
		idle := awake - tx - rx
		if idle < 0 {
			idle = 0
		}
		prof.InTx += tx
		prof.InRx += rx
		prof.InIdle += idle
	}
	return window, nil
}

// ackRequests builds the acknowledgment polling requests for a group: a
// minimum-cost set of relaying paths covering every group sensor (greedy
// weighted set cover, costs = hop counts), one ack packet per chosen path
// starting at the path's first sensor. The cover's input and output
// buffers live in the runner's scratch.
func (r *Runner) ackRequests(group []int, routes map[int][]int) ([]core.Request, error) {
	scr := r.scr
	if scr.indexOf == nil {
		scr.indexOf = make(map[int]int, len(group))
	} else {
		clear(scr.indexOf)
	}
	for i, v := range group {
		scr.indexOf[v] = i
	}
	scr.subsets, scr.paths = scr.subsets[:0], scr.paths[:0]
	for _, v := range group {
		route := routes[v]
		if route == nil {
			return nil, fmt.Errorf("cluster: sensor %d has no candidate ack path", v)
		}
		var elems []int
		scr.subsets, elems = appendSubset(scr.subsets)
		for _, x := range route[:len(route)-1] {
			if i, ok := scr.indexOf[x]; ok {
				elems = append(elems, i)
			}
		}
		scr.subsets[len(scr.subsets)-1] = graph.Subset{Elements: elems, Cost: float64(len(route) - 1)}
		scr.paths = append(scr.paths, route)
	}
	chosen, _, err := graph.GreedySetCover(len(group), scr.subsets)
	if err != nil {
		return nil, fmt.Errorf("cluster: ack cover failed: %w", err)
	}
	scr.ackReqs = scr.ackReqs[:0]
	for i, c := range chosen {
		scr.ackReqs = append(scr.ackReqs, core.Request{ID: i + 1, Route: scr.paths[c]})
	}
	return scr.ackReqs, nil
}

// Summary aggregates many cycles.
type Summary struct {
	Cycles        int
	Offered       int
	Delivered     int
	Retries       int
	MeanActive    float64 // mean per-sensor active fraction
	MeanAckSlots  float64
	MeanDataSlots float64
	MeanDuty      time.Duration
	AllFit        bool
	MeanProfiles  []energy.CycleProfile // per node, averaged
	OracleTests   int
}

// Run simulates the given number of cycles and aggregates.
func (r *Runner) Run(cycles int) (*Summary, error) {
	if cycles < 1 {
		return nil, fmt.Errorf("cluster: need at least one cycle")
	}
	n := r.C.Sensors()
	s := &Summary{Cycles: cycles, AllFit: true,
		MeanProfiles: make([]energy.CycleProfile, n+1)}
	for i := range s.MeanProfiles {
		s.MeanProfiles[i].Cycle = r.P.Cycle
	}
	var activeSum float64
	var ackSum, dataSum int
	var dutySum time.Duration
	for i := 0; i < cycles; i++ {
		res, err := r.RunCycle()
		if err != nil {
			return nil, err
		}
		s.Offered += res.Offered
		s.Delivered += res.Delivered
		s.Retries += res.Retries
		activeSum += res.ActiveFraction
		ackSum += res.AckSlots
		dataSum += res.DataSlots
		dutySum += res.Duty
		s.AllFit = s.AllFit && res.Fits
		for v := range s.MeanProfiles {
			s.MeanProfiles[v].InTx += res.Profiles[v].InTx
			s.MeanProfiles[v].InRx += res.Profiles[v].InRx
			s.MeanProfiles[v].InIdle += res.Profiles[v].InIdle
		}
		s.OracleTests = res.OracleTests
	}
	for v := range s.MeanProfiles {
		s.MeanProfiles[v].InTx /= time.Duration(cycles)
		s.MeanProfiles[v].InRx /= time.Duration(cycles)
		s.MeanProfiles[v].InIdle /= time.Duration(cycles)
	}
	s.MeanActive = activeSum / float64(cycles)
	s.MeanAckSlots = float64(ackSum) / float64(cycles)
	s.MeanDataSlots = float64(dataSum) / float64(cycles)
	s.MeanDuty = dutySum / time.Duration(cycles)
	return s, nil
}

// String renders the summary as a compact human-readable report.
func (s *Summary) String() string {
	return fmt.Sprintf(
		"cycles %d: delivered %d/%d (%.0f%%), mean active %.2f%%, mean duty %v (ack %.1f + data %.1f slots), retries %d",
		s.Cycles, s.Delivered, s.Offered, s.DeliveredFraction()*100,
		s.MeanActive*100, s.MeanDuty.Round(time.Millisecond),
		s.MeanAckSlots, s.MeanDataSlots, s.Retries)
}

// DeliveredFraction is the throughput as a fraction of offered load.
func (s *Summary) DeliveredFraction() float64 {
	if s.Offered == 0 {
		return 1
	}
	return float64(s.Delivered) / float64(s.Offered)
}

// Lifetime returns the cluster lifetime — the time until the first sensor
// exhausts a battery of the given capacity at its mean per-cycle power —
// the Fig. 7(c) metric.
func (s *Summary) Lifetime(m energy.Model, batteryJoules float64) time.Duration {
	min := time.Duration(0)
	for v := 1; v < len(s.MeanProfiles); v++ {
		lt := energy.Lifetime(m, s.MeanProfiles[v], batteryJoules)
		if min == 0 || lt < min {
			min = lt
		}
	}
	return min
}

// TokenRotationCycle returns the minimum cycle length for a field of
// clusters that removes inter-cluster interference by transmitting one
// cluster at a time (Section V-G's token scheme).
func TokenRotationCycle(duties []time.Duration) time.Duration {
	var sum time.Duration
	for _, d := range duties {
		sum += d
	}
	return sum
}

// ColoredCycle returns the minimum cycle length when clusters are assigned
// radio channels by the given coloring: clusters sharing a channel
// serialize, different channels run concurrently.
func ColoredCycle(duties []time.Duration, colors []int) (time.Duration, error) {
	if len(duties) != len(colors) {
		return 0, fmt.Errorf("cluster: %d duties vs %d colors", len(duties), len(colors))
	}
	perColor := make(map[int]time.Duration)
	for i, d := range duties {
		perColor[colors[i]] += d
	}
	var max time.Duration
	for _, d := range perColor {
		if d > max {
			max = d
		}
	}
	return max, nil
}
