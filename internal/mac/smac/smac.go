// Package smac implements the S-MAC baseline the paper compares against
// (its reference [8], Ye/Heidemann/Estrin), paired with AODV routing, on
// the discrete-event kernel:
//
//   - periodic listen/sleep frames with a configurable duty cycle, each
//     node on its own random phase (no SYNC protocol), the sink always
//     awake;
//   - CSMA with randomized backoff inside a contention window, virtual
//     carrier sense (NAV) from overheard RTS/CTS, and the
//     RTS/CTS/DATA/ACK exchange, which may extend past the listen window
//     as in S-MAC;
//   - at most one data exchange started per node per frame, and only
//     inside the node's own listen window (S-MAC's adaptive-listening
//     extension is not modeled);
//   - physical collisions: overlapping transmissions heard by a receiver
//     corrupt each other (hidden terminals included);
//   - AODV route discovery floods, data-driven refresh, and invalidation
//     after repeated handshake failures.
//
// The paper's Fig. 7(b) finding — S-MAC+AODV throughput falls well below
// the offered load as the duty cycle shrinks and the load grows, because
// of routing control packets and random-access collisions — emerges from
// exactly these mechanisms.
package smac

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/obs"
	"repro/internal/radio"
	"repro/internal/routing/aodv"
	"repro/internal/sim"
)

// Metric series the network emits when Network.Obs is set. Unlike the
// Metrics struct, these counters cover the whole run, warmup included —
// the observability layer watches the simulation as it happens.
const (
	// MetricContention counts contention attempts: a node with pending
	// data reached the end of its backoff inside a usable window.
	MetricContention = "smac_contention_attempts_total"
	// MetricCollisions counts data frames corrupted at their intended
	// receiver by overlapping transmissions.
	MetricCollisions = "smac_collisions_total"
	// MetricOverhears counts overheard RTS/CTS/data unicasts addressed to
	// someone else (the virtual-carrier-sense input).
	MetricOverhears = "smac_overhears_total"
)

// Config parameterizes the S-MAC network.
type Config struct {
	// Duty is the fraction of every frame spent listening, in (0, 1].
	Duty float64
	// Frame is the listen+sleep period length.
	Frame time.Duration
	// CWSlot and CWSlots define the contention window: backoff is a
	// uniform number of slots in [0, CWSlots).
	CWSlot  time.Duration
	CWSlots int
	// BandwidthBps is the radio bit rate (the paper: 200 kbps).
	BandwidthBps float64
	// DataBytes is the fixed data packet size (the paper: 80 bytes
	// including header and payload); CtrlBytes sizes RTS/CTS/ACK/AODV
	// messages.
	DataBytes, CtrlBytes int
	// SIFS is the short inter-frame gap inside a handshake.
	SIFS time.Duration
	// RetryLimit bounds handshake retries before the packet is dropped
	// and the route invalidated.
	RetryLimit int
	// QueueCap bounds each node's forwarding queue.
	QueueCap int
	// RouteTimeout is AODV's active-route lifetime.
	RouteTimeout time.Duration
	// DiscoveryTimeout is how long a node waits for an RREP before
	// re-flooding.
	DiscoveryTimeout time.Duration
	// Seed drives backoff and jitter randomness.
	Seed int64
}

// DefaultConfig returns the configuration used by the Fig. 7(b)
// reproduction at the given duty cycle.
func DefaultConfig(duty float64, seed int64) Config {
	return Config{
		Duty: duty,
		// Real S-MAC frames run ~1 s (115 ms listen at 10% duty); the
		// frame bounds each node to one data exchange per period, which
		// is what throttles relays under load.
		Frame:            time.Second,
		CWSlot:           time.Millisecond,
		CWSlots:          16,
		BandwidthBps:     200_000,
		DataBytes:        80,
		CtrlBytes:        10,
		SIFS:             300 * time.Microsecond,
		RetryLimit:       5,
		QueueCap:         20,
		RouteTimeout:     10 * time.Second,
		DiscoveryTimeout: 500 * time.Millisecond,
		Seed:             seed,
	}
}

func (c Config) validate() error {
	if c.Duty <= 0 || c.Duty > 1 {
		return fmt.Errorf("smac: duty %v outside (0,1]", c.Duty)
	}
	if c.Frame <= 0 || c.BandwidthBps <= 0 || c.DataBytes <= 0 || c.CtrlBytes <= 0 {
		return fmt.Errorf("smac: non-positive timing/size parameters")
	}
	if c.CWSlots < 1 || c.CWSlot <= 0 {
		return fmt.Errorf("smac: bad contention window")
	}
	if c.RetryLimit < 1 || c.QueueCap < 1 {
		return fmt.Errorf("smac: bad retry limit or queue capacity")
	}
	return nil
}

func (c Config) txTime(bytes int) time.Duration {
	return time.Duration(float64(bytes*8) / c.BandwidthBps * float64(time.Second))
}

func (c Config) listenLen() time.Duration {
	return time.Duration(c.Duty * float64(c.Frame))
}

// exchangeDur is the full RTS/CTS/DATA/ACK airtime.
func (c Config) exchangeDur() time.Duration {
	return 3*c.txTime(c.CtrlBytes) + c.txTime(c.DataBytes) + 3*c.SIFS
}

type pktKind int

const (
	pktRTS pktKind = iota
	pktCTS
	pktDATA
	pktACK
	pktRREQ
	pktRREP
)

// dataPacket is an application packet traveling to the sink.
type dataPacket struct {
	id     int64
	origin int
}

type payload struct {
	kind pktKind
	data dataPacket // for pktDATA
	rreq aodv.RREQ
	rrep aodv.RREP
	// dur is the NAV duration others should defer for (set on RTS/CTS).
	dur time.Duration
}

// transmission is one in-the-air frame.
type transmission struct {
	from      int
	to        int // receiver, or aodv.Broadcast
	pl        payload
	start     time.Duration
	end       time.Duration
	corrupted map[int]bool // receivers at which this frame collided
}

// Metrics aggregates the network's counters.
type Metrics struct {
	Generated  int // data packets offered (after warmup)
	Delivered  int // data packets received by the sink (after warmup)
	Drops      int // queue overflows + retry-limit drops
	Collisions int // frames corrupted at their intended receiver
	Ctrl       int // control frames sent (RTS/CTS/ACK/RREQ/RREP)
	DataSent   int // data frames sent (including retries)
	// MeanActive is the mean per-sensor awake fraction: the duty cycle
	// plus overtime spent finishing exchanges that ran past the listen
	// window (S-MAC lets a handshake extend into the sleep period).
	MeanActive float64
}

// Network is an S-MAC+AODV network over a shared radio medium.
type Network struct {
	cfg   Config
	eng   *sim.Engine
	med   *radio.Medium
	rng   *rand.Rand
	sink  int
	nodes []*node
	air   map[*transmission]bool

	// Obs, when non-nil, receives MAC-level counters (the Metric*
	// constants) as the simulation runs. A nil Obs costs one branch per
	// event.
	Obs obs.Observer

	warmupDone bool
	m          Metrics
	nextPktID  int64
	overtime   time.Duration // total awake time spent outside listen windows
}

// NewNetwork builds an S-MAC network on the given medium; node `sink` is
// the data collector (the cluster head in the paper's comparison).
func NewNetwork(med *radio.Medium, sink int, cfg Config) (*Network, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if sink < 0 || sink >= med.N() {
		return nil, fmt.Errorf("smac: sink %d out of range", sink)
	}
	nw := &Network{
		cfg:  cfg,
		eng:  &sim.Engine{},
		med:  med,
		rng:  rand.New(rand.NewSource(cfg.Seed)),
		sink: sink,
		air:  make(map[*transmission]bool),
	}
	for i := 0; i < med.N(); i++ {
		// Each node runs its own listen/sleep phase. Without the paper's
		// central coordinator, schedules in a multi-hop S-MAC network are
		// only loosely aligned (virtual clusters, border nodes); a sender
		// whose listen window misses its receiver's fails the handshake,
		// which is exactly the route-breakage mechanism the paper blames
		// for S-MAC+AODV's throughput. Duty 1.0 makes phases irrelevant.
		// The phase also staggers the once-per-frame send opportunity, so
		// even at duty 1.0 nodes do not contend in lockstep at frame
		// boundaries.
		var phase time.Duration
		if med.N() > 1 {
			phase = time.Duration(nw.rng.Int63n(int64(cfg.Frame)))
		}
		nw.nodes = append(nw.nodes, &node{id: i, net: nw, phase: phase,
			table: aodv.NewTable(i, cfg.RouteTimeout),
			seen:  make(map[int64]bool)})
	}
	// The sink (a powerful collector) never sleeps.
	nw.nodes[sink].phase = 0
	nw.nodes[sink].alwaysOn = true
	return nw, nil
}

// StartCBR makes every non-sink node generate CBR traffic at the given
// per-node rate in bytes/second, starting at a small per-node phase offset
// to avoid systemic synchronization.
func (nw *Network) StartCBR(rateBps float64) {
	if rateBps <= 0 {
		panic("smac: non-positive rate")
	}
	interval := time.Duration(float64(nw.cfg.DataBytes) / rateBps * float64(time.Second))
	for _, nd := range nw.nodes {
		if nd.id == nw.sink {
			continue
		}
		nd := nd
		offset := time.Duration(nw.rng.Int63n(int64(interval) + 1))
		var tick func()
		tick = func() {
			nw.generate(nd)
			nw.eng.Schedule(interval, tick)
		}
		nw.eng.Schedule(offset, tick)
	}
}

func (nw *Network) generate(nd *node) {
	if nw.warmupDone {
		nw.m.Generated++
	}
	if len(nd.queue) >= nw.cfg.QueueCap {
		if nw.warmupDone {
			nw.m.Drops++
		}
		return
	}
	nw.nextPktID++
	nd.queue = append(nd.queue, dataPacket{id: nw.nextPktID, origin: nd.id})
	nd.kick()
}

// Run simulates for the given total duration; metrics only accumulate
// after the warmup prefix (the paper warms up 100 s of its 1000 s runs).
func (nw *Network) Run(total, warmup time.Duration) Metrics {
	if warmup > 0 {
		nw.eng.Schedule(warmup, func() { nw.warmupDone = true })
	} else {
		nw.warmupDone = true
	}
	// Kick every node's frame loop at its own phase.
	for _, nd := range nw.nodes {
		nd := nd
		var frame func()
		frame = func() {
			nd.onListenStart()
			nw.eng.Schedule(nw.cfg.Frame, frame)
		}
		nw.eng.Schedule(nd.phase, frame)
	}
	nw.eng.Run(total)
	sensors := len(nw.nodes) - 1
	if sensors > 0 && total > 0 {
		nw.m.MeanActive = nw.cfg.Duty +
			nw.overtime.Seconds()/(float64(sensors)*total.Seconds())
	}
	return nw.m
}

// engage extends nd's awake window to `until`, charging any newly covered
// sleep-period time as overtime (the sink's and duty-1.0 nodes' windows
// are all listen, so they accrue none).
func (nd *node) engage(until time.Duration) {
	from := nd.now()
	if nd.engagedUntil > from {
		from = nd.engagedUntil
	}
	if until <= from {
		return
	}
	if !nd.alwaysOn && nd.id != nd.net.sink {
		nd.net.overtime += nd.sleepOverlap(from, until)
	}
	nd.engagedUntil = until
}

// sleepOverlap returns how much of [from, to) falls into nd's sleep
// periods.
func (nd *node) sleepOverlap(from, to time.Duration) time.Duration {
	if nd.alwaysOn || to <= from {
		return 0
	}
	cfg := nd.net.cfg
	listen := cfg.listenLen()
	var total time.Duration
	for t := from; t < to; {
		off := ((t-nd.phase)%cfg.Frame + cfg.Frame) % cfg.Frame
		if off < listen {
			next := t + (listen - off)
			if next > to {
				next = to
			}
			t = next
		} else {
			next := t + (cfg.Frame - off)
			if next > to {
				next = to
			}
			total += next - t
			t = next
		}
	}
	return total
}

// count bumps a metric counter when an observer is attached.
func (nw *Network) count(name string) {
	if nw.Obs != nil {
		nw.Obs.Add(name, 1)
	}
}

// ThroughputBps converts delivered packets to bytes/second over the
// measurement window.
func (m Metrics) ThroughputBps(window time.Duration, dataBytes int) float64 {
	if window <= 0 {
		return 0
	}
	return float64(m.Delivered*dataBytes) / window.Seconds()
}

// --- physical layer ---

// listening reports whether t falls inside nd's own listen window.
func (nd *node) listening(t time.Duration) bool {
	if nd.alwaysOn {
		return true
	}
	frame := nd.net.cfg.Frame
	return ((t-nd.phase)%frame+frame)%frame < nd.net.cfg.listenLen()
}

// awakeAt reports whether node nd is awake at time t: inside its listen
// window or engaged in an ongoing exchange.
func (nw *Network) awakeAt(nd *node, t time.Duration) bool {
	return nd.listening(t) || nd.engagedUntil >= t
}

// channelBusy reports whether nd senses carrier.
func (nw *Network) channelBusy(nd *node) bool {
	for tx := range nw.air {
		if tx.from != nd.id && nw.med.Carries(tx.from, nd.id) {
			return true
		}
	}
	return false
}

// transmit puts a frame on the air. Collisions with concurrent
// transmissions are computed at every node that hears both.
func (nw *Network) transmit(from, to int, pl payload, bytes int) {
	now := nw.eng.Now()
	tx := &transmission{
		from: from, to: to, pl: pl,
		start: now, end: now + nw.cfg.txTime(bytes),
		corrupted: make(map[int]bool),
	}
	if pl.kind == pktDATA {
		nw.m.DataSent++
	} else {
		nw.m.Ctrl++
	}
	// Mark mutual corruption with every overlapping transmission at every
	// common listener.
	for other := range nw.air {
		for _, nd := range nw.nodes {
			r := nd.id
			if r == tx.from || r == other.from {
				continue
			}
			if nw.med.Carries(tx.from, r) && nw.med.Carries(other.from, r) {
				tx.corrupted[r] = true
				other.corrupted[r] = true
			}
		}
	}
	nw.air[tx] = true
	nw.eng.Schedule(tx.end-now, func() { nw.finish(tx) })
}

func (nw *Network) finish(tx *transmission) {
	delete(nw.air, tx)
	for _, nd := range nw.nodes {
		r := nd.id
		if r == tx.from {
			continue
		}
		if tx.to != aodv.Broadcast && tx.to != r {
			// Unicast overheard by a third party: NAV handling only.
			if !tx.corrupted[r] && nw.med.InRange(tx.from, r) && nw.awakeAt(nd, tx.start) {
				nd.overhear(tx)
			}
			continue
		}
		if !nw.med.InRange(tx.from, r) {
			continue
		}
		if !nw.awakeAt(nd, tx.start) || !nw.awakeAt(nd, tx.end) {
			continue // slept through part of the frame
		}
		if nd.txUntil > tx.start {
			continue // half duplex: was transmitting
		}
		if tx.corrupted[r] {
			if tx.to == r && tx.pl.kind == pktDATA {
				nw.count(MetricCollisions)
				if nw.warmupDone {
					nw.m.Collisions++
				}
			}
			continue
		}
		nd.receive(tx)
	}
}

// --- node behavior ---

type node struct {
	id       int
	net      *Network
	phase    time.Duration // listen/sleep schedule offset
	alwaysOn bool          // the sink never sleeps

	table *aodv.Table
	queue []dataPacket
	seen  map[int64]bool // data packet ids already accepted (MAC dedup)

	retries       int
	sentThisFrame bool          // S-MAC: at most one data exchange per frame
	busyUntil     time.Duration // engaged in a handshake until
	engagedUntil  time.Duration // stays awake until (>= busyUntil)
	navUntil      time.Duration
	txUntil       time.Duration

	awaitingCTS bool
	awaitingACK bool
	peer        int // current handshake counterpart
	ctsTimer    sim.Timer
	ackTimer    sim.Timer

	discoveryPending bool
	attemptScheduled bool
}

func (nd *node) now() time.Duration { return nd.net.eng.Now() }

// onListenStart fires at every frame boundary of the node's own schedule.
func (nd *node) onListenStart() {
	nd.sentThisFrame = false
	nd.kick()
}

// kick schedules a contention attempt if the node has work and is not
// already engaged or scheduled.
func (nd *node) kick() {
	if nd.attemptScheduled || len(nd.queue) == 0 || nd.sentThisFrame {
		return
	}
	now := nd.now()
	if !nd.listening(now) {
		return // will be kicked at the next frame start
	}
	backoff := time.Duration(nd.net.rng.Intn(nd.net.cfg.CWSlots)) * nd.net.cfg.CWSlot
	nd.attemptScheduled = true
	nd.net.eng.Schedule(backoff, func() {
		nd.attemptScheduled = false
		nd.attempt()
	})
}

func (nd *node) attempt() {
	now := nd.now()
	cfg := nd.net.cfg
	if len(nd.queue) == 0 || nd.busyUntil > now || nd.sentThisFrame {
		return
	}
	if !nd.listening(now) {
		return // missed the window; next frame
	}
	nd.net.count(MetricContention)
	if now < nd.navUntil || nd.net.channelBusy(nd) {
		// Defer: retry after the NAV/carrier clears if still listening.
		resume := nd.navUntil
		if resume <= now {
			resume = now + cfg.CWSlot
		}
		if nd.listening(resume) {
			nd.attemptScheduled = true
			nd.net.eng.At(resume, func() {
				nd.attemptScheduled = false
				nd.kickNow()
			})
		}
		return
	}
	next, ok := nd.table.NextHop(nd.net.sink, now)
	if !ok {
		nd.startDiscovery()
		return
	}
	// Begin the handshake: RTS naming the exchange duration. This burns
	// the frame's single data-exchange opportunity whether or not the
	// handshake succeeds (the receiver may be asleep on its own phase).
	nd.sentThisFrame = true
	dur := cfg.exchangeDur()
	nd.peer = next
	nd.awaitingCTS = true
	nd.busyUntil = now + dur
	nd.engage(now + dur)
	nd.txUntil = now + cfg.txTime(cfg.CtrlBytes)
	nd.net.transmit(nd.id, next, payload{kind: pktRTS, dur: dur}, cfg.CtrlBytes)
	ctsDeadline := cfg.txTime(cfg.CtrlBytes)*2 + cfg.SIFS + cfg.CWSlot
	nd.ctsTimer = nd.net.eng.Schedule(ctsDeadline, func() { nd.handshakeFailed() })
}

// kickNow retries contention immediately (post-NAV) with a fresh backoff.
func (nd *node) kickNow() {
	if len(nd.queue) == 0 || nd.sentThisFrame {
		return
	}
	backoff := time.Duration(nd.net.rng.Intn(nd.net.cfg.CWSlots)) * nd.net.cfg.CWSlot
	nd.attemptScheduled = true
	nd.net.eng.Schedule(backoff, func() {
		nd.attemptScheduled = false
		nd.attempt()
	})
}

func (nd *node) handshakeFailed() {
	nd.awaitingCTS = false
	nd.awaitingACK = false
	nd.busyUntil = nd.now()
	nd.retries++
	if nd.retries > nd.net.cfg.RetryLimit {
		// Drop the packet and invalidate the route through this peer.
		if len(nd.queue) > 0 {
			nd.queue = nd.queue[1:]
		}
		nd.retries = 0
		nd.table.InvalidateNextHop(nd.peer)
		if nd.net.warmupDone {
			nd.net.m.Drops++
		}
	}
	nd.kick()
}

func (nd *node) startDiscovery() {
	if nd.discoveryPending {
		return
	}
	nd.discoveryPending = true
	q := nd.table.Originate(nd.net.sink, nd.now())
	nd.sendCtrl(aodv.Broadcast, payload{kind: pktRREQ, rreq: q})
	nd.net.eng.Schedule(nd.net.cfg.DiscoveryTimeout, func() {
		// Whether or not an RREP arrived, resume contention; sustained
		// discovery failure surfaces as queue overflow.
		nd.discoveryPending = false
		nd.kick()
	})
}

// sendCtrl transmits a control frame with carrier sense but no handshake.
func (nd *node) sendCtrl(to int, pl payload) {
	now := nd.now()
	cfg := nd.net.cfg
	if nd.net.channelBusy(nd) || nd.busyUntil > now {
		// Brief random retry.
		delay := time.Duration(1+nd.net.rng.Intn(cfg.CWSlots)) * cfg.CWSlot
		nd.net.eng.Schedule(delay, func() { nd.sendCtrl(to, pl) })
		return
	}
	nd.txUntil = now + cfg.txTime(cfg.CtrlBytes)
	nd.net.transmit(nd.id, to, pl, cfg.CtrlBytes)
}

// overhear implements virtual carrier sense from unicasts addressed to
// someone else.
func (nd *node) overhear(tx *transmission) {
	nd.net.count(MetricOverhears)
	if tx.pl.kind == pktRTS || tx.pl.kind == pktCTS {
		until := tx.start + tx.pl.dur
		if until > nd.navUntil {
			nd.navUntil = until
		}
	}
}

func (nd *node) receive(tx *transmission) {
	now := nd.now()
	cfg := nd.net.cfg
	switch tx.pl.kind {
	case pktRTS:
		if nd.busyUntil > now {
			return // engaged elsewhere: no CTS, sender times out
		}
		dur := tx.pl.dur
		nd.peer = tx.from
		nd.busyUntil = tx.start + dur
		nd.engage(tx.start + dur)
		nd.net.eng.Schedule(cfg.SIFS, func() {
			nd.txUntil = nd.now() + cfg.txTime(cfg.CtrlBytes)
			nd.net.transmit(nd.id, tx.from, payload{kind: pktCTS, dur: dur - cfg.txTime(cfg.CtrlBytes) - cfg.SIFS}, cfg.CtrlBytes)
		})
	case pktCTS:
		if !nd.awaitingCTS || tx.from != nd.peer {
			return
		}
		nd.awaitingCTS = false
		nd.ctsTimer.Cancel()
		pkt := nd.queue[0]
		nd.net.eng.Schedule(cfg.SIFS, func() {
			nd.txUntil = nd.now() + cfg.txTime(cfg.DataBytes)
			nd.net.transmit(nd.id, nd.peer, payload{kind: pktDATA, data: pkt}, cfg.DataBytes)
		})
		nd.awaitingACK = true
		ackDeadline := cfg.SIFS*2 + cfg.txTime(cfg.DataBytes) + cfg.txTime(cfg.CtrlBytes) + cfg.CWSlot
		nd.ackTimer = nd.net.eng.Schedule(ackDeadline, func() { nd.handshakeFailed() })
	case pktDATA:
		// Receiver of the handshake.
		nd.net.eng.Schedule(cfg.SIFS, func() {
			nd.txUntil = nd.now() + cfg.txTime(cfg.CtrlBytes)
			nd.net.transmit(nd.id, tx.from, payload{kind: pktACK}, cfg.CtrlBytes)
		})
		nd.busyUntil = now // exchange over after the ACK
		nd.table.Refresh(nd.net.sink, now)
		if nd.seen[tx.pl.data.id] {
			return // MAC-level duplicate (our ACK was lost last time)
		}
		nd.seen[tx.pl.data.id] = true
		if nd.id == nd.net.sink {
			if nd.net.warmupDone {
				nd.net.m.Delivered++
			}
			return
		}
		// Forward toward the sink.
		if len(nd.queue) < cfg.QueueCap {
			nd.queue = append(nd.queue, tx.pl.data)
			nd.kick()
		} else if nd.net.warmupDone {
			nd.net.m.Drops++
		}
	case pktACK:
		if !nd.awaitingACK || tx.from != nd.peer {
			return
		}
		nd.awaitingACK = false
		nd.ackTimer.Cancel()
		nd.busyUntil = now
		nd.retries = 0
		if len(nd.queue) > 0 {
			nd.queue = nd.queue[1:]
		}
		nd.kick()
	case pktRREQ:
		fwd, rep := nd.table.HandleRREQ(tx.pl.rreq, tx.from, now)
		if rep != nil {
			// The destination unicasts the RREP along the reverse route
			// just installed by HandleRREQ.
			if nh, ok := nd.table.NextHop(rep.Origin, now); ok {
				rep := *rep
				nd.net.eng.Schedule(cfg.SIFS, func() {
					nd.sendCtrl(nh, payload{kind: pktRREP, rrep: rep})
				})
			}
		}
		if fwd != nil {
			f := *fwd
			jitter := time.Duration(nd.net.rng.Intn(cfg.CWSlots)) * cfg.CWSlot
			nd.net.eng.Schedule(jitter, func() {
				nd.sendCtrl(aodv.Broadcast, payload{kind: pktRREQ, rreq: f})
			})
		}
	case pktRREP:
		next, done, err := nd.table.HandleRREP(tx.pl.rrep, tx.from, now)
		if err != nil {
			return // reverse route evaporated; discovery will retry
		}
		if done {
			nd.discoveryPending = false
			nd.kick()
			return
		}
		rep := aodv.ForwardRREP(tx.pl.rrep)
		nd.net.eng.Schedule(cfg.SIFS, func() {
			nd.sendCtrl(next, payload{kind: pktRREP, rrep: rep})
		})
	}
}
