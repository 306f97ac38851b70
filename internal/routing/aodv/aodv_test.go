package aodv

import (
	"testing"
	"time"
)

const tout = 10 * time.Second

func TestDiscoveryLine(t *testing.T) {
	// Line 0-1-2: node 2 discovers a route to 0.
	t0 := NewTable(0, tout)
	t1 := NewTable(1, tout)
	t2 := NewTable(2, tout)
	now := time.Second

	q := t2.Originate(0, now)
	if q.Origin != 2 || q.Dest != 0 || q.HopCount != 0 {
		t.Fatalf("bad RREQ %+v", q)
	}
	// Node 1 hears it and forwards.
	fwd, rep := t1.HandleRREQ(q, 2, now)
	if rep != nil || fwd == nil {
		t.Fatalf("node1: fwd=%v rep=%v", fwd, rep)
	}
	if fwd.HopCount != 1 {
		t.Fatalf("forwarded hop count %d", fwd.HopCount)
	}
	// Node 1 now has a reverse route to 2.
	if nh, ok := t1.NextHop(2, now); !ok || nh != 2 {
		t.Fatalf("node1 reverse route: %v %v", nh, ok)
	}
	// Node 0 (destination) replies.
	fwd0, rep0 := t0.HandleRREQ(*fwd, 1, now)
	if fwd0 != nil || rep0 == nil {
		t.Fatalf("node0: fwd=%v rep=%v", fwd0, rep0)
	}
	// The RREP travels 0 -> 1 -> 2.
	next, done, err := t1.HandleRREP(*rep0, 0, now)
	if err != nil || done || next != 2 {
		t.Fatalf("node1 RREP: next=%d done=%v err=%v", next, done, err)
	}
	rep1 := ForwardRREP(*rep0)
	_, done, err = t2.HandleRREP(rep1, 1, now)
	if err != nil || !done {
		t.Fatalf("node2 RREP: done=%v err=%v", done, err)
	}
	// Node 2 has the forward route via 1 with 2 hops.
	if nh, ok := t2.NextHop(0, now); !ok || nh != 1 {
		t.Fatalf("node2 route: %v %v", nh, ok)
	}
	if hc, _ := t2.HopCount(0, now); hc != 2 {
		t.Fatalf("node2 hop count = %d", hc)
	}
	// Node 1's forward route is 1 hop.
	if hc, _ := t1.HopCount(0, now); hc != 1 {
		t.Fatalf("node1 hop count = %d", hc)
	}
}

func TestDuplicateFloodSuppressed(t *testing.T) {
	t1 := NewTable(1, tout)
	t2 := NewTable(2, tout)
	q := t2.Originate(0, 0)
	if fwd, _ := t1.HandleRREQ(q, 2, 0); fwd == nil {
		t.Fatal("first copy should forward")
	}
	if fwd, _ := t1.HandleRREQ(q, 2, 0); fwd != nil {
		t.Fatal("duplicate copy should be suppressed")
	}
	// The origin ignores its own flood echo.
	if fwd, rep := t2.HandleRREQ(q, 1, 0); fwd != nil || rep != nil {
		t.Fatal("origin must ignore its own RREQ")
	}
}

func TestRouteExpiry(t *testing.T) {
	tb := NewTable(1, time.Second)
	q := RREQ{Origin: 2, Dest: 0, ID: 1, HopCount: 0, OriginSeq: 1}
	tb.HandleRREQ(q, 2, 0)
	if _, ok := tb.NextHop(2, 500*time.Millisecond); !ok {
		t.Fatal("route should be live")
	}
	if _, ok := tb.NextHop(2, 2*time.Second); ok {
		t.Fatal("route should have expired")
	}
	// Refresh keeps it alive.
	tb.HandleRREQ(RREQ{Origin: 2, Dest: 0, ID: 2, OriginSeq: 1}, 2, 900*time.Millisecond)
	tb.Refresh(2, 900*time.Millisecond)
	if _, ok := tb.NextHop(2, 1800*time.Millisecond); !ok {
		t.Fatal("refreshed route should survive")
	}
}

func TestFresherRouteWins(t *testing.T) {
	tb := NewTable(1, tout)
	tb.HandleRREQ(RREQ{Origin: 2, Dest: 0, ID: 1, HopCount: 4, OriginSeq: 1}, 5, 0)
	// Same seq, shorter hop count: replace.
	tb.HandleRREQ(RREQ{Origin: 2, Dest: 0, ID: 2, HopCount: 1, OriginSeq: 1}, 6, 0)
	if nh, _ := tb.NextHop(2, 0); nh != 6 {
		t.Fatalf("shorter route should win: next hop %d", nh)
	}
	// Same seq, longer: keep.
	tb.HandleRREQ(RREQ{Origin: 2, Dest: 0, ID: 3, HopCount: 9, OriginSeq: 1}, 7, 0)
	if nh, _ := tb.NextHop(2, 0); nh != 6 {
		t.Fatalf("longer route must not replace: next hop %d", nh)
	}
	// Higher seq: replace even if longer.
	tb.HandleRREQ(RREQ{Origin: 2, Dest: 0, ID: 4, HopCount: 9, OriginSeq: 5}, 8, 0)
	if nh, _ := tb.NextHop(2, 0); nh != 8 {
		t.Fatalf("fresher route should win: next hop %d", nh)
	}
}

func TestInvalidateNextHop(t *testing.T) {
	tb := NewTable(1, tout)
	tb.HandleRREQ(RREQ{Origin: 2, Dest: 0, ID: 1, OriginSeq: 1}, 5, 0)
	tb.HandleRREQ(RREQ{Origin: 3, Dest: 0, ID: 1, OriginSeq: 1}, 5, 0)
	tb.HandleRREQ(RREQ{Origin: 4, Dest: 0, ID: 1, OriginSeq: 1}, 6, 0)
	broken := tb.InvalidateNextHop(5)
	if len(broken) != 2 {
		t.Fatalf("broken = %v", broken)
	}
	if _, ok := tb.NextHop(2, 0); ok {
		t.Fatal("route via broken neighbor should be gone")
	}
	if _, ok := tb.NextHop(4, 0); !ok {
		t.Fatal("unrelated route should survive")
	}
}

func TestRREPWithoutReverseRouteErrors(t *testing.T) {
	tb := NewTable(1, tout)
	_, _, err := tb.HandleRREP(RREP{Origin: 9, Dest: 0, HopCount: 0, DestSeq: 1}, 0, 0)
	if err == nil {
		t.Fatal("missing reverse route should error")
	}
}

func TestOriginateBumpsIdentifiers(t *testing.T) {
	tb := NewTable(3, tout)
	a := tb.Originate(0, 0)
	b := tb.Originate(0, 0)
	if b.ID <= a.ID || b.OriginSeq <= a.OriginSeq {
		t.Fatalf("identifiers must increase: %+v %+v", a, b)
	}
}

func TestNewTablePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTable(1, 0)
}

// HopCount returns the route's hop count toward dest, if live.
func (t *Table) HopCount(dest int, now time.Duration) (int, bool) {
	r, ok := t.routes[dest]
	if !ok || now > r.Expires {
		return 0, false
	}
	return r.HopCount, true
}
