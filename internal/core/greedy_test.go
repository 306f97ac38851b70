package core

import (
	"math/rand"
	"testing"

	"repro/internal/radio"
)

// fig2Instance is the paper's Fig. 2: sensors S1(1), S2(2), S3(3), head 0.
// S2 and S3 hold one packet each; S2 relays through S1; S2->S1 and S3->head
// do not collide.
func fig2Instance() ([]Request, *radio.TableOracle) {
	reqs := []Request{
		{ID: 1, Route: []int{2, 1, 0}},
		{ID: 2, Route: []int{3, 0}},
	}
	o := radio.NewTableOracle()
	o.AllowPair(
		radio.Transmission{From: 2, To: 1},
		radio.Transmission{From: 3, To: 0},
	)
	return reqs, o
}

func TestFig2Example(t *testing.T) {
	reqs, o := fig2Instance()
	sched, st, err := Greedy(reqs, Options{Oracle: o})
	if err != nil {
		t.Fatal(err)
	}
	if sched.Makespan() != 2 {
		t.Fatalf("makespan = %d want 2 (paper Fig. 2(b))", sched.Makespan())
	}
	if err := Validate(sched, reqs, o); err != nil {
		t.Fatal(err)
	}
	// Slot 0 must carry both S2->S1 and S3->head.
	if len(sched.Slots[0]) != 2 {
		t.Fatalf("slot 0 = %v", sched.Slots[0])
	}
	if st.Retries != 0 || st.Slots != 2 {
		t.Fatalf("stats = %+v", st)
	}
	// Sequential polling would need 3 slots; verify with M=1.
	seq, _, err := Greedy(reqs, Options{Oracle: o, MaxConcurrent: 1})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Makespan() != 3 {
		t.Fatalf("sequential makespan = %d want 3", seq.Makespan())
	}
}

func TestGreedySingleHopReducesToSequential(t *testing.T) {
	// All sensors at level 1 with an oracle that permits nothing in
	// parallel: n packets take n slots (single-hop polling is trivial).
	o := radio.NewTableOracle()
	var reqs []Request
	for i := 1; i <= 5; i++ {
		reqs = append(reqs, Request{ID: i, Route: []int{i, 0}})
	}
	sched, st, err := Greedy(reqs, Options{Oracle: o})
	if err != nil {
		t.Fatal(err)
	}
	if sched.Makespan() != 5 {
		t.Fatalf("makespan = %d want 5", sched.Makespan())
	}
	if err := Validate(sched, reqs, o); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range st.TxCount {
		total += c
	}
	if total != 5 {
		t.Fatalf("tx total = %d", total)
	}
}

func TestGreedyRespectsM(t *testing.T) {
	// Fully-compatible single-hop transmissions to distinct receivers
	// (not the head, to dodge the duplicate-receiver rule).
	o := radio.NewTableOracle()
	var reqs []Request
	for i := 0; i < 6; i++ {
		reqs = append(reqs, Request{ID: i + 1, Route: []int{10 + i, 20 + i}})
	}
	for i := range reqs {
		for j := i + 1; j < len(reqs); j++ {
			o.AllowPair(reqs[i].Tx(0), reqs[j].Tx(0))
		}
	}
	for _, m := range []int{1, 2, 3} {
		sched, _, err := Greedy(reqs, Options{Oracle: o, MaxConcurrent: m})
		if err != nil {
			t.Fatal(err)
		}
		for s, g := range sched.Slots {
			if len(g) > m {
				t.Fatalf("M=%d: slot %d has %d transmissions", m, s, len(g))
			}
		}
		want := (len(reqs) + m - 1) / m
		if sched.Makespan() != want {
			t.Fatalf("M=%d: makespan %d want %d", m, sched.Makespan(), want)
		}
	}
}

func TestGreedyUsesTestedOracleBound(t *testing.T) {
	// MaxConcurrent=0 should inherit M from a TestedOracle.
	o := radio.NewTableOracle()
	var reqs []Request
	for i := 0; i < 4; i++ {
		reqs = append(reqs, Request{ID: i + 1, Route: []int{10 + i, 20 + i}})
	}
	for i := range reqs {
		for j := i + 1; j < len(reqs); j++ {
			o.AllowPair(reqs[i].Tx(0), reqs[j].Tx(0))
		}
	}
	tested := radio.NewTestedOracle(o, 2)
	sched, _, err := Greedy(reqs, Options{Oracle: tested})
	if err != nil {
		t.Fatal(err)
	}
	for s, g := range sched.Slots {
		if len(g) > 2 {
			t.Fatalf("slot %d exceeded tested-oracle bound: %v", s, g)
		}
	}
	if sched.Makespan() != 2 {
		t.Fatalf("makespan = %d want 2", sched.Makespan())
	}
}

func TestGreedyLossRetries(t *testing.T) {
	reqs, o := fig2Instance()
	// Lose S3's first transmission attempt (slot 0) only.
	loss := func(slot int, tx radio.Transmission) bool {
		return slot == 0 && tx.From == 3
	}
	sched, st, err := Greedy(reqs, Options{Oracle: o, Loss: loss})
	if err != nil {
		t.Fatal(err)
	}
	if st.Retries != 1 {
		t.Fatalf("retries = %d want 1", st.Retries)
	}
	if err := Validate(sched, reqs, o); err != nil {
		t.Fatal(err)
	}
	// S3's packet must complete on the retry.
	if sched.Completed[2] < 1 {
		t.Fatalf("retried packet completed at %d", sched.Completed[2])
	}
}

func TestGreedyMidRouteLossRepollsFromSource(t *testing.T) {
	// 3-hop route; lose the second hop of the first attempt. The head
	// detects the missing arrival and re-polls the source sensor.
	reqs := []Request{{ID: 7, Route: []int{3, 2, 1, 0}}}
	o := radio.NewTableOracle()
	first := true
	loss := func(slot int, tx radio.Transmission) bool {
		if tx.From == 2 && first {
			first = false
			return true
		}
		return false
	}
	sched, st, err := Greedy(reqs, Options{Oracle: o, Loss: loss})
	if err != nil {
		t.Fatal(err)
	}
	if st.Retries != 1 {
		t.Fatalf("retries = %d", st.Retries)
	}
	if err := Validate(sched, reqs, o); err != nil {
		t.Fatal(err)
	}
	// The failed attempt transmitted hops 0 and 1 but not hop 2.
	if st.TxCount[3] != 2 { // source sent twice
		t.Fatalf("source tx count = %d want 2", st.TxCount[3])
	}
	if st.TxCount[1] != 1 { // last relay only transmitted on the retry
		t.Fatalf("relay 1 tx count = %d want 1", st.TxCount[1])
	}
}

func TestGreedyPermanentLossErrors(t *testing.T) {
	reqs, o := fig2Instance()
	loss := func(int, radio.Transmission) bool { return true }
	_, _, err := Greedy(reqs, Options{Oracle: o, Loss: loss})
	if err == nil {
		t.Fatal("expected overflow error under 100% loss")
	}
}

func TestGreedyInputValidation(t *testing.T) {
	o := radio.NewTableOracle()
	if _, _, err := Greedy(nil, Options{}); err == nil {
		t.Error("missing oracle should error")
	}
	bad := []Request{{ID: 1, Route: []int{5}}}
	if _, _, err := Greedy(bad, Options{Oracle: o}); err == nil {
		t.Error("short route should error")
	}
	loop := []Request{{ID: 1, Route: []int{1, 2, 1, 0}}}
	if _, _, err := Greedy(loop, Options{Oracle: o}); err == nil {
		t.Error("looping route should error")
	}
	reqs := []Request{{ID: 1, Route: []int{1, 0}}, {ID: 2, Route: []int{2, 0}}}
	if _, _, err := Greedy(reqs, Options{Oracle: o, Order: []int{0}}); err == nil {
		t.Error("short order should error")
	}
	if _, _, err := Greedy(reqs, Options{Oracle: o, Order: []int{0, 0}}); err == nil {
		t.Error("non-permutation order should error")
	}
}

func TestGreedyOrderMatters(t *testing.T) {
	// Two requests sharing nothing plus one conflicting with both; any
	// order must yield a valid schedule.
	reqs, o := fig2Instance()
	a, _, err := Greedy(reqs, Options{Oracle: o, Order: []int{1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(a, reqs, o); err != nil {
		t.Fatal(err)
	}
}

func TestGreedyEmptyRequests(t *testing.T) {
	o := radio.NewTableOracle()
	sched, st, err := Greedy(nil, Options{Oracle: o})
	if err != nil {
		t.Fatal(err)
	}
	if sched.Makespan() != 0 || st.Slots != 0 {
		t.Fatalf("empty run: makespan %d", sched.Makespan())
	}
}

func TestGreedyDelayVariant(t *testing.T) {
	reqs, o := fig2Instance()
	sched, _, err := Greedy(reqs, Options{Oracle: o, AllowDelay: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateDelayed(sched, reqs, o); err != nil {
		t.Fatal(err)
	}
	// Theorem 2: delay cannot beat the pipelined optimum (2 slots here).
	if sched.Makespan() < 2 {
		t.Fatalf("delay variant makespan %d beats lower bound", sched.Makespan())
	}
}

func TestGreedyDelayWithLoss(t *testing.T) {
	reqs := []Request{{ID: 1, Route: []int{2, 1, 0}}}
	o := radio.NewTableOracle()
	lost := false
	loss := func(slot int, tx radio.Transmission) bool {
		if tx.From == 1 && !lost {
			lost = true
			return true
		}
		return false
	}
	sched, st, err := Greedy(reqs, Options{Oracle: o, AllowDelay: true, Loss: loss})
	if err != nil {
		t.Fatal(err)
	}
	if st.Retries != 1 {
		t.Fatalf("retries = %d", st.Retries)
	}
	if err := ValidateDelayed(sched, reqs, o); err != nil {
		t.Fatal(err)
	}
	// In delay mode the retry resumes from the holding relay, not the
	// source: the source transmits exactly once.
	if st.TxCount[2] != 1 {
		t.Fatalf("source tx count = %d want 1", st.TxCount[2])
	}
	if st.TxCount[1] != 2 {
		t.Fatalf("relay tx count = %d want 2", st.TxCount[1])
	}
}

func TestRandomLoss(t *testing.T) {
	f := RandomLoss(5, 0.5)
	tx := radio.Transmission{From: 1, To: 2}
	a, b := f(3, tx), f(3, tx)
	if a != b {
		t.Fatal("RandomLoss must be deterministic per (slot, tx)")
	}
	never := RandomLoss(5, 0)
	for s := 0; s < 100; s++ {
		if never(s, tx) {
			t.Fatal("p=0 must never lose")
		}
	}
	always := RandomLoss(5, 1)
	for s := 0; s < 100; s++ {
		if !always(s, tx) {
			t.Fatal("p=1 must always lose")
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for p>1")
		}
	}()
	RandomLoss(1, 1.5)
}

func TestGreedyStatsAccounting(t *testing.T) {
	reqs, o := fig2Instance()
	_, st, err := Greedy(reqs, Options{Oracle: o})
	if err != nil {
		t.Fatal(err)
	}
	// Lossless: total tx = total hops = 3.
	total := 0
	for _, c := range st.TxCount {
		total += c
	}
	if total != 3 {
		t.Fatalf("tx total = %d want 3", total)
	}
	// Head receives twice.
	if st.RxCount[0] != 2 {
		t.Fatalf("head rx = %d want 2", st.RxCount[0])
	}
	// S3 finishes in slot 0 and is inactive afterwards.
	if st.LastActive[3] != 0 {
		t.Fatalf("S3 last active = %d want 0", st.LastActive[3])
	}
	if st.LastActive[1] != 1 {
		t.Fatalf("S1 last active = %d want 1", st.LastActive[1])
	}
}

// randomTSRFLikeInstance builds random multi-hop requests over a small id
// space with a random pairwise compatibility table.
func randomInstance(rng *rand.Rand) ([]Request, *radio.TableOracle) {
	nReq := 1 + rng.Intn(5)
	var reqs []Request
	for i := 0; i < nReq; i++ {
		hops := 1 + rng.Intn(3)
		route := []int{0}
		// Build backwards from the head using fresh node ids to keep
		// routes loop-free.
		for k := 0; k < hops; k++ {
			route = append([]int{10 + i*4 + k}, route...)
		}
		reqs = append(reqs, Request{ID: i + 1, Route: route})
	}
	o := radio.NewTableOracle()
	var all []radio.Transmission
	for _, r := range reqs {
		for k := 0; k < r.Hops(); k++ {
			all = append(all, r.Tx(k))
		}
	}
	for i := range all {
		for j := i + 1; j < len(all); j++ {
			if rng.Float64() < 0.5 {
				o.AllowPair(all[i], all[j])
			}
		}
	}
	return reqs, o
}

func TestGreedyAlwaysValidRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 100; trial++ {
		reqs, o := randomInstance(rng)
		sched, st, err := Greedy(reqs, Options{Oracle: o})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := Validate(sched, reqs, o); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Lower bounds: every packet arrives at the head in a distinct
		// slot, and the longest route is a floor.
		maxHops := 0
		for _, r := range reqs {
			if r.Hops() > maxHops {
				maxHops = r.Hops()
			}
		}
		if sched.Makespan() < maxHops || sched.Makespan() < len(reqs) {
			t.Fatalf("trial %d: makespan %d below lower bounds (%d hops, %d reqs)",
				trial, sched.Makespan(), maxHops, len(reqs))
		}
		if st.Slots != sched.Makespan() {
			t.Fatalf("trial %d: stats/schedule disagree on slots", trial)
		}
	}
}
