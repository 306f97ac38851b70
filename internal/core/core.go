// Package core implements the paper's primary contribution: collision-free
// multi-hop polling schedules inside one cluster.
//
// The cluster head controls sensors in a time-slotted manner. At the
// beginning of every slot it broadcasts a polling message naming the
// sensors that transmit and the sensors that receive; relays forward a
// received packet in the immediately following slot ("a pipelined
// system, and the polling message acts as the clock"). Finding a
// minimum-makespan schedule — the Multi-Hop Polling (MHP) problem — is
// NP-hard (Lemma 1/Theorems 1-4, reproduced in tsrf.go), so the head runs
// the fast on-line greedy algorithm of the paper's Table 1 (greedy.go),
// which also handles packet loss by re-polling. An exact branch-and-bound
// solver for small instances (optimal.go) quantifies the greedy's gap.
package core

import (
	"fmt"
	"strings"

	"repro/internal/radio"
)

// Request is one polling request: one data packet that must travel from a
// sensor along its fixed relaying path to the cluster head. A sensor with
// k packets to send contributes k requests sharing the same route.
type Request struct {
	// ID identifies the request; IDs must be unique within a polling run.
	ID int
	// Route is the packet's relaying path: Route[0] is the source sensor,
	// Route[len-1] the cluster head. It must have at least 2 nodes.
	Route []int
}

// Hops returns the number of transmissions the packet needs.
func (r Request) Hops() int { return len(r.Route) - 1 }

// Tx returns the transmission performed at hop k (0-based).
func (r Request) Tx(k int) radio.Transmission {
	return radio.Transmission{From: r.Route[k], To: r.Route[k+1]}
}

// Validate checks structural validity of the request. Routes are hop
// paths inside one cluster — a handful of nodes — so the duplicate check
// scans the prefix instead of building a set; Validate runs once per
// request per polling run and must not allocate.
func (r Request) Validate() error {
	if len(r.Route) < 2 {
		return fmt.Errorf("core: request %d has short route %v", r.ID, r.Route)
	}
	for i, v := range r.Route {
		if v < 0 {
			return fmt.Errorf("core: request %d routes through negative node", r.ID)
		}
		for _, w := range r.Route[:i] {
			if w == v {
				return fmt.Errorf("core: request %d has a routing loop: %v", r.ID, r.Route)
			}
		}
	}
	return nil
}

// Schedule is a slotted polling schedule: Slots[s] lists the transmissions
// the head instructs for slot s. For pipelined (no-delay) scheduling a
// request admitted at slot s occupies slots s..s+Hops-1 with its
// consecutive hops.
type Schedule struct {
	Slots [][]radio.Transmission
	// Start maps request ID to the slot of its final (successful)
	// admission.
	Start map[int]int
	// Completed maps request ID to the slot in which the head received
	// the packet.
	Completed map[int]int
}

// Makespan returns the number of slots the schedule uses.
func (s *Schedule) Makespan() int { return len(s.Slots) }

// String renders the schedule slot by slot, one line per slot — the
// polling messages the head would broadcast.
func (s *Schedule) String() string {
	var b strings.Builder
	for i, group := range s.Slots {
		fmt.Fprintf(&b, "slot %d:", i+1)
		if len(group) == 0 {
			b.WriteString(" (idle)")
		}
		for _, tx := range group {
			fmt.Fprintf(&b, " %v", tx)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// LossFn decides whether the given transmission, scheduled in the given
// slot, is lost. A nil LossFn means a lossless channel. Implementations
// must be deterministic per (slot, tx) pair within one run if reproducible
// schedules are desired; see RandomLoss.
type LossFn func(slot int, tx radio.Transmission) bool

// Options configures a polling run.
type Options struct {
	// Oracle answers group-compatibility questions; required.
	Oracle radio.CompatibilityOracle
	// MaxConcurrent caps the number of concurrent transmissions per slot
	// (the paper's M: the head only knows compatibility of groups of at
	// most M transmissions). Zero means "use Oracle.MaxGroup()", and if
	// that is also zero the group size is unbounded.
	MaxConcurrent int
	// AllowDelay switches to the delay-allowed variant in which a relay
	// may hold a packet for later slots. The paper proves delay does not
	// help makespan (Theorem 2); the variant exists for the ablation.
	AllowDelay bool
	// Loss injects packet loss; nil means lossless.
	Loss LossFn
	// Order optionally fixes the scan order of requests (indices into the
	// request slice). Nil means natural order. The paper's algorithm
	// scans "according to an arbitrarily predetermined order".
	Order []int
	// Scratch donates reusable buffers to the run and receives them back:
	// the returned Schedule and Stats point into the scratch and are valid
	// only until the next Greedy call with the same scratch. Nil gives the
	// call a private zero-value scratch, so its results are never
	// overwritten. Only the pipelined (default) path keeps its buffers
	// there; the delay-allowed ablation allocates its own.
	Scratch *GreedyScratch
}

func (o *Options) maxConcurrent() int {
	if o.MaxConcurrent > 0 {
		return o.MaxConcurrent
	}
	if o.Oracle != nil {
		return o.Oracle.MaxGroup() // 0 = unbounded
	}
	return 0
}

// Stats reports what physically happened during a polling run.
type Stats struct {
	// Slots is the realized makespan including retransmissions.
	Slots int
	// TxCount[v] counts packets node v actually transmitted.
	TxCount map[int]int
	// RxCount[v] counts slots node v spent receiving (successful or not).
	RxCount map[int]int
	// Retries counts re-polls caused by packet loss.
	Retries int
	// LastActive[v] is the last slot index in which v transmitted or
	// received; sensors absent from the map were never active. The
	// sector layer uses this for early-sleep accounting.
	LastActive map[int]int
}

func newStats() *Stats {
	return &Stats{
		TxCount:    make(map[int]int),
		RxCount:    make(map[int]int),
		LastActive: make(map[int]int),
	}
}

func (st *Stats) markTx(v, slot int) {
	st.TxCount[v]++
	st.touch(v, slot)
}

func (st *Stats) markRx(v, slot int) {
	st.RxCount[v]++
	st.touch(v, slot)
}

func (st *Stats) touch(v, slot int) {
	if cur, ok := st.LastActive[v]; !ok || slot > cur {
		st.LastActive[v] = slot
	}
}
