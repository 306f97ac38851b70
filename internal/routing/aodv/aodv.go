// Package aodv implements the AODV routing logic the paper pairs with
// S-MAC for its throughput baseline ("to find the relaying path for each
// sensor, we use AODV"): on-demand route discovery via RREQ floods,
// reverse-path RREP unicasts, sequence-numbered freshness, route expiry
// and link-failure invalidation.
//
// The package is a pure protocol engine — it decides what to send and how
// to update state — while the S-MAC stack (internal/mac/smac) owns timing
// and the radio channel. That split keeps the protocol unit-testable
// without a simulator.
package aodv

import (
	"fmt"
	"time"
)

// Broadcast is the RREQ destination meaning "all neighbors".
const Broadcast = -1

// RREQ is a route request flooded toward the destination.
type RREQ struct {
	Origin    int
	Dest      int
	ID        uint32 // per-origin flood identifier
	HopCount  int    // hops traveled so far
	OriginSeq uint32
}

// RREP is a route reply unicast hop-by-hop back to the origin.
type RREP struct {
	Origin   int
	Dest     int
	HopCount int // hops from the destination so far
	DestSeq  uint32
}

// Route is a forwarding-table entry.
type Route struct {
	NextHop  int
	HopCount int
	Seq      uint32
	Expires  time.Duration // absolute simulated time
}

// Table is one node's AODV state.
type Table struct {
	self    int
	seq     uint32
	rreqID  uint32
	timeout time.Duration
	routes  map[int]Route
	seen    map[uint64]bool // (origin, id) floods already handled
}

// NewTable returns an empty table for node self with the given active
// route timeout.
func NewTable(self int, timeout time.Duration) *Table {
	if timeout <= 0 {
		panic("aodv: non-positive route timeout")
	}
	return &Table{
		self:    self,
		timeout: timeout,
		routes:  make(map[int]Route),
		seen:    make(map[uint64]bool),
	}
}

func seenKey(origin int, id uint32) uint64 {
	return uint64(uint32(origin))<<32 | uint64(id)
}

// NextHop returns the live next hop toward dest, if any.
func (t *Table) NextHop(dest int, now time.Duration) (int, bool) {
	r, ok := t.routes[dest]
	if !ok || now > r.Expires {
		return 0, false
	}
	return r.NextHop, true
}

// Refresh extends the lifetime of the route to dest (data traffic keeps
// routes alive).
func (t *Table) Refresh(dest int, now time.Duration) {
	if r, ok := t.routes[dest]; ok {
		r.Expires = now + t.timeout
		t.routes[dest] = r
	}
}

// install adds or replaces a route if the candidate is fresher (higher
// sequence) or equally fresh but shorter.
func (t *Table) install(dest, nextHop, hopCount int, seq uint32, now time.Duration) {
	cur, ok := t.routes[dest]
	if ok && now <= cur.Expires {
		if cur.Seq > seq || (cur.Seq == seq && cur.HopCount <= hopCount) {
			return
		}
	}
	t.routes[dest] = Route{NextHop: nextHop, HopCount: hopCount, Seq: seq, Expires: now + t.timeout}
}

// Originate creates a new RREQ for dest, bumping the node's sequence and
// flood id. The caller broadcasts it.
func (t *Table) Originate(dest int, now time.Duration) RREQ {
	t.seq++
	t.rreqID++
	q := RREQ{Origin: t.self, Dest: dest, ID: t.rreqID, HopCount: 0, OriginSeq: t.seq}
	t.seen[seenKey(t.self, t.rreqID)] = true
	return q
}

// HandleRREQ processes a received flood copy that arrived from neighbor
// `from`. It installs/refreshes the reverse route to the origin, and
// returns:
//
//   - forward: a copy to rebroadcast (hop count incremented), or nil if
//     this flood was already seen or this node is the destination;
//   - reply: an RREP to unicast back toward the origin when this node is
//     the destination.
func (t *Table) HandleRREQ(q RREQ, from int, now time.Duration) (forward *RREQ, reply *RREP) {
	if q.Origin == t.self {
		return nil, nil
	}
	// Reverse route to the origin through `from`.
	t.install(q.Origin, from, q.HopCount+1, q.OriginSeq, now)
	key := seenKey(q.Origin, q.ID)
	if t.seen[key] {
		return nil, nil
	}
	t.seen[key] = true
	if q.Dest == t.self {
		t.seq++
		return nil, &RREP{Origin: q.Origin, Dest: t.self, HopCount: 0, DestSeq: t.seq}
	}
	f := q
	f.HopCount++
	return &f, nil
}

// HandleRREP processes a route reply arriving from neighbor `from` on its
// way to rep.Origin. It installs the forward route to the destination and
// returns the next hop to pass the RREP to (found via the reverse route),
// or done=true when this node is the origin.
func (t *Table) HandleRREP(rep RREP, from int, now time.Duration) (next int, done bool, err error) {
	t.install(rep.Dest, from, rep.HopCount+1, rep.DestSeq, now)
	if rep.Origin == t.self {
		return 0, true, nil
	}
	nh, ok := t.NextHop(rep.Origin, now)
	if !ok {
		return 0, false, fmt.Errorf("aodv: node %d has no reverse route to origin %d", t.self, rep.Origin)
	}
	return nh, false, nil
}

// ForwardRREP increments the reply's hop count for the next link; call it
// before passing the RREP on.
func ForwardRREP(rep RREP) RREP {
	rep.HopCount++
	return rep
}

// InvalidateNextHop drops every route whose next hop is the broken
// neighbor (link-failure handling); it returns the affected destinations.
func (t *Table) InvalidateNextHop(neighbor int) []int {
	var broken []int
	for dest, r := range t.routes {
		if r.NextHop == neighbor {
			delete(t.routes, dest)
			broken = append(broken, dest)
		}
	}
	return broken
}
