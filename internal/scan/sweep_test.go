package scan

import (
	"fmt"
	"math"
	"testing"

	"superpose/internal/logic"
	"superpose/internal/netlist"
	"superpose/internal/power"
	"superpose/internal/stats"
	"superpose/internal/trust"
)

// flipClones materializes the single-flip clones of base, one per flip.
func flipClones(base *Pattern, flips []Flip) []*Pattern {
	clones := make([]*Pattern, len(flips))
	for i, f := range flips {
		q := base.Clone()
		if f.IsPI() {
			q.PI[f.Index] = !q.PI[f.Index]
		} else {
			q.Scan[f.Chain][f.Index] = !q.Scan[f.Chain][f.Index]
		}
		clones[i] = q
	}
	return clones
}

// launchToggles launches pats through eng and returns the launch's
// per-gate toggle masks, truncated to the batch's lanes.
func launchToggles(t *testing.T, eng *Engine, pats []*Pattern, mode Mode) []logic.Word {
	t.Helper()
	if _, _, err := eng.Launch(pats, mode); err != nil {
		t.Fatal(err)
	}
	ids, masks := eng.Toggled(nil, nil)
	dense := densify(eng.Chains().Netlist().NumGates(), ids, masks)
	for id := range dense {
		dense[id] &= laneMaskOf(len(pats))
	}
	return dense
}

// referenceToggles launches the materialized single-flip clones of base
// through the engine — the path the Sweeper replaces — and returns the
// per-gate toggle masks of the batch's lanes.
func referenceToggles(t *testing.T, eng *Engine, base *Pattern, flips []Flip, mode Mode) []logic.Word {
	t.Helper()
	return launchToggles(t, eng, flipClones(base, flips), mode)
}

// listPrices is the toggle-list oracle of sparse pricing: lane l's
// nominal power is the sum of NominalOf over the gates whose mask in
// dense has bit l set, added in ascending gate-ID order.
func listPrices(model *power.Model, dense []logic.Word, numLanes int) []float64 {
	out := make([]float64, numLanes)
	for lane := range out {
		for id, m := range dense {
			if m>>uint(lane)&1 != 0 {
				out[lane] += model.NominalOf(id)
			}
		}
	}
	return out
}

// densify expands a sparse (ids, masks) encoding into a per-gate array.
func densify(numGates int, ids []int, masks []logic.Word) []logic.Word {
	out := make([]logic.Word, numGates)
	for k, id := range ids {
		out[id] = masks[k]
	}
	return out
}

// allFlips lists every stimulus bit of ch: scan cells chain-major, then
// primary inputs — the flip list of the evaluator's sweep session.
func allFlips(ch *Chains) []Flip {
	var flips []Flip
	for c := 0; c < ch.NumChains(); c++ {
		for j := range ch.Chain(c) {
			flips = append(flips, Flip{c, j})
		}
	}
	for i := range ch.Netlist().PIs {
		flips = append(flips, Flip{PIFlip, i})
	}
	return flips
}

// flipRange is the single-pattern chunk lane map [lo, lo+1, …, hi-1]:
// on the pair (X, X), lane l is X with flip lo+l applied.
func flipRange(lo, hi int) []int {
	lanes := make([]int, hi-lo)
	for l := range lanes {
		lanes[l] = lo + l
	}
	return lanes
}

// pairRange is the strategic chunk lane map [lo, lo, lo+1, lo+1, …]:
// lanes 2i and 2i+1 are A and B with flip lo+i applied jointly.
func pairRange(lo, hi int) []int {
	lanes := make([]int, 0, 2*(hi-lo))
	for i := lo; i < hi; i++ {
		lanes = append(lanes, i, i)
	}
	return lanes
}

// TestSweeperMatchesLaunch is the fuzz-style structural guard of the
// single-pattern sweep the adaptive climb runs on: random circuits,
// chain counts and modes, the sweeper rebased onto a pair (X, X) — every
// 64-flip chunk's sparse toggle encoding must densify to exactly the
// engine's toggle masks over the materialized clones of X, and its
// sparse pricing must be bit-identical to the per-lane toggle-list sums
// of those masks. The sweeper borrows the engine the references launch
// on. It then repeats the check exhaustively on the zoo: every pattern of
// each circuit's input space as X, every single-bit flip of it as a lane.
func TestSweeperMatchesLaunch(t *testing.T) {
	rng := stats.NewRNG(0x5eeb)
	lib := power.SAED90Like()
	for trial := 0; trial < 10; trial++ {
		n, err := trust.Generate(trust.Params{
			Name:   "sweep",
			PIs:    1 + int(rng.Uint64()%6),
			POs:    3,
			FFs:    4 + int(rng.Uint64()%20),
			Comb:   30 + int(rng.Uint64()%120),
			Levels: 3 + int(rng.Uint64()%4),
			Seed:   rng.Uint64(),
		})
		if err != nil {
			t.Fatal(err)
		}
		ch := Configure(n, 1+int(rng.Uint64()%4))
		eng := NewEngine(ch)
		model := power.NewModel(n, lib)
		for _, mode := range []Mode{LOS, LOC} {
			// Every stimulus bit once — plus duplicates, so a flip list
			// that revisits bits (and spans a ragged final chunk) works.
			flips := allFlips(ch)
			for k := 0; k < 5; k++ {
				flips = append(flips, flips[int(rng.Uint64()%uint64(len(flips)))])
			}

			s, err := NewSweeper(eng, mode, flips)
			if err != nil {
				t.Fatal(err)
			}
			for rebase := 0; rebase < 2; rebase++ {
				base := ch.RandomPattern(rng)
				if err := s.Rebase(base, base); err != nil {
					t.Fatal(err)
				}
				for lo := 0; lo < len(flips); lo += 64 {
					hi := min(lo+64, len(flips))
					ids, masks := s.RunLanes(flipRange(lo, hi))
					got := densify(n.NumGates(), ids, masks)
					want := referenceToggles(t, eng, base, flips[lo:hi], mode)
					for id := range want {
						if got[id] != want[id] {
							t.Fatalf("trial %d %v chunk %d: gate %s toggles %064b, want %064b",
								trial, mode, lo/64, n.NameOf(id), got[id], want[id])
						}
					}
					list := listPrices(model, want, hi-lo)
					sparse := model.NominalLanesSparse(ids, masks, hi-lo, nil)
					for lane := range list {
						if math.Float64bits(list[lane]) != math.Float64bits(sparse[lane]) {
							t.Fatalf("trial %d %v chunk %d lane %d: sparse price %v != list %v",
								trial, mode, lo/64, lane, sparse[lane], list[lane])
						}
					}
				}
				// Re-running a chunk against the same base must be
				// idempotent: RunLanes restores its working state.
				hi := min(64, len(flips))
				ids, masks := s.RunLanes(flipRange(0, hi))
				again := densify(n.NumGates(), ids, masks)
				want := referenceToggles(t, eng, base, flips[:hi], mode)
				for id := range want {
					if again[id] != want[id] {
						t.Fatalf("trial %d %v: chunk 0 re-run deviates at gate %s", trial, mode, n.NameOf(id))
					}
				}
			}
		}
	}

	if testing.Short() {
		return
	}
	for _, ch := range zooChains(t) {
		n := ch.Netlist()
		eng := NewEngine(ch)
		flips := allFlips(ch)
		for _, mode := range []Mode{LOS, LOC} {
			s, err := NewSweeper(eng, mode, flips)
			if err != nil {
				t.Fatal(err)
			}
			for bi, base := range allPatterns(t, ch) {
				if err := s.Rebase(base, base); err != nil {
					t.Fatal(err)
				}
				for lo := 0; lo < len(flips); lo += 64 {
					hi := min(lo+64, len(flips))
					ids, masks := s.RunLanes(flipRange(lo, hi))
					got := densify(n.NumGates(), ids, masks)
					want := referenceToggles(t, eng, base, flips[lo:hi], mode)
					for id := range want {
						if got[id] != want[id] {
							t.Fatalf("%s %v base %d chunk %d: gate %s toggles %016x, want %016x",
								n.Name, mode, bi, lo/64, n.NameOf(id), got[id], want[id])
						}
					}
				}
			}
			s.Close()
		}
		eng.Close()
	}
}

// hiddenStateCircuit builds a random full-scan circuit that also carries
// NoScan flip-flops (hidden sequential state, as a sequential Trojan's
// counter cells are): every gate reads earlier nets, every flip-flop's
// D pin is a random gate, so flip cones reach hidden cells' D pins.
func hiddenStateCircuit(t *testing.T, rng *stats.RNG) *netlist.Netlist {
	t.Helper()
	b := netlist.NewBuilder("hidden")
	var nets []string
	nPI := 1 + int(rng.Uint64()%4)
	nFF := 3 + int(rng.Uint64()%10)
	nHidden := 1 + int(rng.Uint64()%3)
	nGates := 20 + int(rng.Uint64()%60)
	pick := func() string { return nets[int(rng.Uint64()%uint64(len(nets)))] }
	gate := func() string { return fmt.Sprintf("g%d", rng.Uint64()%uint64(nGates)) }
	for i := 0; i < nPI; i++ {
		name := fmt.Sprintf("pi%d", i)
		if _, err := b.AddInput(name); err != nil {
			t.Fatal(err)
		}
		nets = append(nets, name)
	}
	for i := 0; i < nFF+nHidden; i++ {
		name := fmt.Sprintf("ff%d", i)
		add := b.AddDFF
		if i >= nFF {
			add = b.AddNonScanDFF
		}
		if _, err := add(name, gate()); err != nil {
			t.Fatal(err)
		}
		nets = append(nets, name)
	}
	types := []netlist.GateType{netlist.And, netlist.Or, netlist.Nand, netlist.Nor, netlist.Xor, netlist.Not}
	for i := 0; i < nGates; i++ {
		typ := types[int(rng.Uint64()%uint64(len(types)))]
		fanin := []string{pick()}
		if typ != netlist.Not {
			fanin = append(fanin, pick())
		}
		name := fmt.Sprintf("g%d", i)
		if _, err := b.AddGate(name, typ, fanin...); err != nil {
			t.Fatal(err)
		}
		nets = append(nets, name)
	}
	b.MarkOutput(fmt.Sprintf("g%d", nGates-1))
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// twoBaseReference launches the materialized joint-flip clones of the
// base pair — lane 2i is a⊕flips[i], lane 2i+1 is b⊕flips[i] — through
// the engine and returns the per-gate toggle masks of the batch's lanes.
func twoBaseReference(t *testing.T, eng *Engine, a, b *Pattern, flips []Flip, mode Mode) []logic.Word {
	t.Helper()
	ca, cb := flipClones(a, flips), flipClones(b, flips)
	pats := make([]*Pattern, 0, 2*len(flips))
	for i := range flips {
		pats = append(pats, ca[i], cb[i])
	}
	return launchToggles(t, eng, pats, mode)
}

// TestSweeperTwoBaseMatchesLaunch is the structural guard of the
// strategic pair search's lane maps: for random circuits (half of them
// with hidden NoScan cells pinned to random states), both modes, a
// distinct pair (A, B) and a pair (X, X), a flip list spanning a ragged
// last chunk, and after each of several joint-flip Advances, every
// 32-pair map [i, i, j, j, …] must encode exactly the engine's toggle
// masks over the materialized pair clones, with no empty mask, and price
// bit-identically to their toggle lists.
func TestSweeperTwoBaseMatchesLaunch(t *testing.T) {
	rng := stats.NewRNG(0x2ba5e)
	lib := power.SAED90Like()
	for trial := 0; trial < 10; trial++ {
		var n *netlist.Netlist
		if trial%2 == 0 {
			var err error
			n, err = trust.Generate(trust.Params{
				Name:   "twobase",
				PIs:    1 + int(rng.Uint64()%6),
				POs:    3,
				FFs:    4 + int(rng.Uint64()%40),
				Comb:   30 + int(rng.Uint64()%120),
				Levels: 3 + int(rng.Uint64()%4),
				Seed:   rng.Uint64(),
			})
			if err != nil {
				t.Fatal(err)
			}
		} else {
			n = hiddenStateCircuit(t, rng)
		}
		ch := Configure(n, 1+int(rng.Uint64()%3))
		model := power.NewModel(n, lib)
		flips := allFlips(ch)
		for _, mode := range []Mode{LOS, LOC} {
			for _, same := range []bool{false, true} {
				eng := NewEngine(ch)
				s, err := NewSweeper(eng, mode, flips)
				if err != nil {
					t.Fatal(err)
				}
				for _, ff := range n.FFs {
					if n.IsNoScan(ff) {
						w := logic.Word(0)
						if rng.Bool() {
							w = logic.AllOne
						}
						eng.SetHiddenState(ff, w)
					}
				}
				a, b := ch.RandomPattern(rng), ch.RandomPattern(rng)
				if same {
					b = a
				}
				if err := s.Rebase(a, b); err != nil {
					t.Fatal(err)
				}
				for step := 0; ; step++ {
					for lo := 0; lo < len(flips); lo += 32 {
						hi := min(lo+32, len(flips))
						c := lo / 32
						ids, masks := s.RunLanes(pairRange(lo, hi))
						got := densify(n.NumGates(), ids, masks)
						want := twoBaseReference(t, eng, a, b, flips[lo:hi], mode)
						for id := range want {
							if got[id] != want[id] {
								t.Fatalf("trial %d %v same=%v step %d chunk %d: gate %s toggles %064b, want %064b",
									trial, mode, same, step, c, n.NameOf(id), got[id], want[id])
							}
						}
						for k := range masks {
							if masks[k] == 0 {
								t.Fatalf("trial %d %v same=%v step %d chunk %d: empty mask for gate %s",
									trial, mode, same, step, c, n.NameOf(ids[k]))
							}
						}
						list := listPrices(model, want, 2*(hi-lo))
						sparse := model.NominalLanesSparse(ids, masks, 2*(hi-lo), nil)
						for lane := range list {
							if math.Float64bits(list[lane]) != math.Float64bits(sparse[lane]) {
								t.Fatalf("trial %d %v same=%v step %d chunk %d lane %d: sparse price %v != list %v",
									trial, mode, same, step, c, lane, sparse[lane], list[lane])
							}
						}
					}
					if step == 3 {
						break
					}
					f := flips[int(rng.Uint64()%uint64(len(flips)))]
					if err := s.Advance(f); err != nil {
						t.Fatal(err)
					}
					a, b = flipClones(a, []Flip{f})[0], flipClones(b, []Flip{f})[0]
				}
				s.Close()
				eng.Close()
			}
		}
	}
}

// TestSweeperAdvanceMatchesRebase pins the incremental rebase: a chain
// of accepted flips advanced one at a time must leave the sweeper in
// exactly the state a full Rebase on the materialized pattern produces —
// every chunk's sparse encoding identical, across modes and circuits, on
// the pair (X, X) of the adaptive climb.
func TestSweeperAdvanceMatchesRebase(t *testing.T) {
	rng := stats.NewRNG(0xadace)
	for trial := 0; trial < 6; trial++ {
		n, err := trust.Generate(trust.Params{
			Name:   "adv",
			PIs:    1 + int(rng.Uint64()%5),
			POs:    3,
			FFs:    4 + int(rng.Uint64()%16),
			Comb:   30 + int(rng.Uint64()%100),
			Levels: 3 + int(rng.Uint64()%4),
			Seed:   rng.Uint64(),
		})
		if err != nil {
			t.Fatal(err)
		}
		ch := Configure(n, 1+int(rng.Uint64()%3))
		flips := allFlips(ch)
		for _, mode := range []Mode{LOS, LOC} {
			// Both sweepers borrow one engine.
			eng := NewEngine(ch)
			inc, err := NewSweeper(eng, mode, flips)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := NewSweeper(eng, mode, flips)
			if err != nil {
				t.Fatal(err)
			}
			base := ch.RandomPattern(rng)
			if err := inc.Rebase(base, base); err != nil {
				t.Fatal(err)
			}
			for step := 0; step < 4; step++ {
				f := flips[int(rng.Uint64()%uint64(len(flips)))]
				if err := inc.Advance(f); err != nil {
					t.Fatal(err)
				}
				base = flipClones(base, []Flip{f})[0]
				if err := ref.Rebase(base, base); err != nil {
					t.Fatal(err)
				}
				for lo := 0; lo < len(flips); lo += 64 {
					lanes := flipRange(lo, min(lo+64, len(flips)))
					ids, masks := inc.RunLanes(lanes)
					got := densify(n.NumGates(), ids, masks)
					wids, wmasks := ref.RunLanes(lanes)
					want := densify(n.NumGates(), wids, wmasks)
					for id := range want {
						if got[id] != want[id] {
							t.Fatalf("trial %d %v step %d chunk %d: gate %s toggles %064b, want %064b",
								trial, mode, step, lo/64, n.NameOf(id), got[id], want[id])
						}
					}
				}
			}
		}
	}
	// Misuse guards.
	n, err := trust.Generate(trust.Params{Name: "advg", PIs: 2, POs: 2, FFs: 4, Comb: 20, Levels: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ch := Configure(n, 1)
	s, err := NewSweeper(NewEngine(ch), LOS, []Flip{{0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Advance(Flip{0, 0}); err == nil {
		t.Error("Advance before Rebase must error")
	}
	base := ch.RandomPattern(stats.NewRNG(1))
	if err := s.Rebase(base, base); err != nil {
		t.Fatal(err)
	}
	if err := s.Advance(Flip{0, 99}); err == nil {
		t.Error("Advance on a cell outside the scan chains must error")
	}
	if err := s.Advance(Flip{0, 3}); err != nil {
		t.Errorf("Advance on a scan cell outside the sweep's flip list: %v", err)
	}
}

// TestSweeperHiddenState pins NoScan handling: a hidden cell holds its
// pinned value through both frames, flips never perturb it, and under
// LOC it must not re-capture even when a flip cone reaches its D pin —
// on the pair (X, X), every flip of X one lane.
func TestSweeperHiddenState(t *testing.T) {
	b := netlist.NewBuilder("hid")
	mustAdd := func(_ int, err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	mustAdd(b.AddInput("pi"))
	mustAdd(b.AddDFF("s0", "d0"))
	mustAdd(b.AddDFF("s1", "d1"))
	mustAdd(b.AddNonScanDFF("h", "dh"))
	mustAdd(b.AddGate("d0", netlist.Xor, "s0", "h"))
	mustAdd(b.AddGate("d1", netlist.Xor, "s1", "pi"))
	mustAdd(b.AddGate("dh", netlist.Xor, "s0", "pi")) // flip cones reach h's D pin
	b.MarkOutput("d0")
	b.MarkOutput("d1")
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ch := Configure(n, 1)
	h, _ := n.GateID("h")
	flips := []Flip{{0, 0}, {0, 1}, {PIFlip, 0}}
	for _, mode := range []Mode{LOS, LOC} {
		for _, hidden := range []logic.Word{0, logic.AllOne} {
			eng := NewEngine(ch)
			eng.SetHiddenState(h, hidden)
			s, err := NewSweeper(eng, mode, flips)
			if err != nil {
				t.Fatal(err)
			}
			base := ch.RandomPattern(stats.NewRNG(3))
			if err := s.Rebase(base, base); err != nil {
				t.Fatal(err)
			}
			ids, masks := s.RunLanes(flipRange(0, len(flips)))
			got := densify(n.NumGates(), ids, masks)
			want := referenceToggles(t, eng, base, flips, mode)
			for id := range want {
				if got[id] != want[id] {
					t.Fatalf("%v hidden=%v: gate %s toggles %b, want %b",
						mode, hidden&1, n.NameOf(id), got[id], want[id])
				}
			}
			if got[h] != 0 {
				t.Errorf("%v: hidden cell toggled under a sweep", mode)
			}
		}
	}
}

// TestNewSweeperValidation rejects out-of-range flips and lane maps.
func TestNewSweeperValidation(t *testing.T) {
	n, err := trust.Generate(trust.Params{Name: "val", PIs: 2, POs: 2, FFs: 4, Comb: 20, Levels: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(Configure(n, 2))
	defer eng.Close()
	ch := eng.Chains()
	cases := [][]Flip{
		{{Chain: 9, Index: 0}},
		{{Chain: -3, Index: 0}},
		{{Chain: 0, Index: 99}},
		{{Chain: 0, Index: -1}},
		{{Chain: PIFlip, Index: 2}},
		{{Chain: PIFlip, Index: -1}},
	}
	for _, fl := range cases {
		if _, err := NewSweeper(eng, LOS, fl); err == nil {
			t.Errorf("flips %v accepted", fl)
		}
	}
	s, err := NewSweeper(eng, LOS, nil)
	if err != nil {
		t.Fatalf("empty flip list must be valid: %v", err)
	}
	p := ch.NewPattern()
	if err := s.Rebase(p, p); err != nil {
		t.Fatal(err)
	}
	if ids, _ := s.RunLanes([]int{-1, -1}); len(ids) != 0 {
		t.Errorf("the all-zero pair toggles %d gates", len(ids))
	}
	for _, lanes := range [][]int{nil, make([]int, 65)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("RunLanes over %d lanes must panic", len(lanes))
				}
			}()
			s.RunLanes(lanes)
		}()
	}
}

// TestSweeperRunBeforeRebasePanics pins the misuse guard.
func TestSweeperRunBeforeRebasePanics(t *testing.T) {
	n, err := trust.Generate(trust.Params{Name: "panic", PIs: 2, POs: 2, FFs: 4, Comb: 20, Levels: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSweeper(NewEngine(Configure(n, 1)), LOS, []Flip{{0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("RunLanes before Rebase must panic")
		}
	}()
	s.RunLanes([]int{0})
}

// TestSweeperBorrowedEngine pins the borrowed-Engine contract: a sweeper
// launches its bases through the caller's Engine, which may launch
// unrelated patterns between sweeper calls. After Rebase, an unrelated
// Launch on the same Engine, every chunk's lane map and each Advance
// must be bit-identical to a sweeper over a private Engine — in both
// modes, over a pair (X, X) and a distinct pair, with hidden NoScan
// cells pinned on both engines.
func TestSweeperBorrowedEngine(t *testing.T) {
	rng := stats.NewRNG(0xb0220)
	for trial := 0; trial < 6; trial++ {
		n := hiddenStateCircuit(t, rng)
		ch := Configure(n, 1+int(rng.Uint64()%3))
		flips := allFlips(ch)
		for _, mode := range []Mode{LOS, LOC} {
			for _, same := range []bool{true, false} {
				shared, private := NewEngine(ch), NewEngine(ch)
				for _, ff := range n.FFs {
					if n.IsNoScan(ff) {
						w := logic.Word(rng.Uint64())
						shared.SetHiddenState(ff, w)
						private.SetHiddenState(ff, w)
					}
				}
				got, err := NewSweeper(shared, mode, flips)
				if err != nil {
					t.Fatal(err)
				}
				want, err := NewSweeper(private, mode, flips)
				if err != nil {
					t.Fatal(err)
				}
				// interfere launches unrelated patterns on the shared engine,
				// in the other mode too, clobbering its frames.
				interfere := func() {
					t.Helper()
					pats := make([]*Pattern, 1+int(rng.Uint64()%64))
					for i := range pats {
						pats[i] = ch.RandomPattern(rng)
					}
					for _, m := range []Mode{LOS, LOC} {
						if _, _, err := shared.Launch(pats, m); err != nil {
							t.Fatal(err)
						}
					}
				}
				compare := func(step int) {
					t.Helper()
					for lo := 0; lo < len(flips); lo += 64 {
						lanes := flipRange(lo, min(lo+64, len(flips)))
						interfere()
						gids, gmasks := got.RunLanes(lanes)
						wids, wmasks := want.RunLanes(lanes)
						if len(gids) != len(wids) {
							t.Fatalf("trial %d %v same=%v step %d chunk %d: %d toggled gates, private engine %d",
								trial, mode, same, step, lo/64, len(gids), len(wids))
						}
						for k := range wids {
							if gids[k] != wids[k] || gmasks[k] != wmasks[k] {
								t.Fatalf("trial %d %v same=%v step %d chunk %d entry %d: (%d, %016x), private engine (%d, %016x)",
									trial, mode, same, step, lo/64, k, gids[k], gmasks[k], wids[k], wmasks[k])
							}
						}
					}
				}
				a, b := ch.RandomPattern(rng), ch.RandomPattern(rng)
				if same {
					b = a
				}
				if err := got.Rebase(a, b); err != nil {
					t.Fatal(err)
				}
				if err := want.Rebase(a, b); err != nil {
					t.Fatal(err)
				}
				for step := 0; step < 3; step++ {
					compare(step)
					interfere()
					f := flips[int(rng.Uint64()%uint64(len(flips)))]
					if err := got.Advance(f); err != nil {
						t.Fatal(err)
					}
					if err := want.Advance(f); err != nil {
						t.Fatal(err)
					}
				}
				compare(3)
				got.Close()
				want.Close()
				shared.Close()
				private.Close()
			}
		}
	}
}

// laneClones materializes a lane map over the pair (a, b): lane l is a
// (even l) or b (odd l), with flips[lanes[l]] applied when lanes[l] is
// not negative.
func laneClones(a, b *Pattern, flips []Flip, lanes []int) []*Pattern {
	pats := make([]*Pattern, len(lanes))
	for l, fi := range lanes {
		base := a
		if l%2 == 1 {
			base = b
		}
		if fi < 0 {
			pats[l] = base
			continue
		}
		pats[l] = flipClones(base, flips[fi:fi+1])[0]
	}
	return pats
}

// checkRunLanes requires s.RunLanes(lanes) to return exactly the
// sparse encoding Engine.Launch and Engine.Toggled give for the
// materialized lane patterns: the same ascending gate IDs with the same
// masks within the map's lanes, and no empty mask.
func checkRunLanes(t testing.TB, label string, s *Sweeper, eng *Engine, a, b *Pattern, flips []Flip, lanes []int) {
	t.Helper()
	n := s.Chains().Netlist()
	pats := laneClones(a, b, flips, lanes)
	if _, _, err := eng.Launch(pats, s.Mode()); err != nil {
		t.Fatal(err)
	}
	wids, wmasks := eng.Toggled(nil, nil)
	mask := laneMaskOf(len(lanes))
	k := 0
	for i, m := range wmasks {
		if m &= mask; m != 0 {
			wids[k], wmasks[k] = wids[i], m
			k++
		}
	}
	wids, wmasks = wids[:k], wmasks[:k]

	ids, masks := s.RunLanes(lanes)
	for i := 0; i < len(ids) || i < len(wids); i++ {
		switch {
		case i >= len(ids):
			t.Fatalf("%s lanes %v: missing gate %s (%016x)", label, lanes, n.NameOf(wids[i]), wmasks[i])
		case i >= len(wids):
			t.Fatalf("%s lanes %v: extra gate %s (%016x)", label, lanes, n.NameOf(ids[i]), masks[i])
		case ids[i] != wids[i] || masks[i] != wmasks[i]:
			t.Fatalf("%s lanes %v entry %d: gate %s %016x, launch gate %s %016x",
				label, lanes, i, n.NameOf(ids[i]), masks[i], n.NameOf(wids[i]), wmasks[i])
		}
	}
}

// randomLaneMap draws 1..64 lanes over nflips flips: about a quarter
// unflipped base lanes and a quarter repeating an earlier lane's flip.
func randomLaneMap(rng *stats.RNG, nflips int) []int {
	lanes := make([]int, 1+int(rng.Uint64()%64))
	for l := range lanes {
		switch r := rng.Uint64() % 4; {
		case r == 0:
			lanes[l] = -1
		case r == 1 && l > 0:
			lanes[l] = lanes[int(rng.Uint64()%uint64(l))]
		default:
			lanes[l] = int(rng.Uint64() % uint64(nflips))
		}
	}
	return lanes
}

// TestSweeperRunLanesMatchesLaunch is the structural guard of the
// lane-addressed run: for random circuits (half with hidden NoScan
// cells pinned to random states), both modes, a pair (X, X) and a
// distinct pair, random lane maps of 1..64 lanes with base lanes and
// repeated flips, plus the one-lane base, a full 64-lane map, and every
// chunk map the flows read — the climb's [lo … lo+63] and the strategic
// search's [i, i, j, j, …] — must encode exactly the launch of the
// materialized lane patterns, before and after Advances.
func TestSweeperRunLanesMatchesLaunch(t *testing.T) {
	rng := stats.NewRNG(0x1a9e5)
	for trial := 0; trial < 8; trial++ {
		var n *netlist.Netlist
		if trial%2 == 0 {
			var err error
			n, err = trust.Generate(trust.Params{
				Name:   "lanes",
				PIs:    1 + int(rng.Uint64()%6),
				POs:    3,
				FFs:    4 + int(rng.Uint64()%40),
				Comb:   30 + int(rng.Uint64()%120),
				Levels: 3 + int(rng.Uint64()%4),
				Seed:   rng.Uint64(),
			})
			if err != nil {
				t.Fatal(err)
			}
		} else {
			n = hiddenStateCircuit(t, rng)
		}
		ch := Configure(n, 1+int(rng.Uint64()%3))
		flips := allFlips(ch)
		for _, mode := range []Mode{LOS, LOC} {
			for _, same := range []bool{true, false} {
				eng := NewEngine(ch)
				for _, ff := range n.FFs {
					if n.IsNoScan(ff) {
						w := logic.Word(0)
						if rng.Bool() {
							w = logic.AllOne
						}
						eng.SetHiddenState(ff, w)
					}
				}
				s, err := NewSweeper(eng, mode, flips)
				if err != nil {
					t.Fatal(err)
				}
				a, b := ch.RandomPattern(rng), ch.RandomPattern(rng)
				if same {
					b = a
				}
				if err := s.Rebase(a, b); err != nil {
					t.Fatal(err)
				}
				for step := 0; step < 3; step++ {
					label := fmt.Sprintf("trial %d %v same=%v step %d", trial, mode, same, step)
					checkRunLanes(t, label, s, eng, a, b, flips, []int{-1})
					full := make([]int, 64)
					for l := range full {
						full[l] = l % len(flips)
					}
					checkRunLanes(t, label, s, eng, a, b, flips, full)
					for k := 0; k < 8; k++ {
						checkRunLanes(t, label, s, eng, a, b, flips, randomLaneMap(rng, len(flips)))
					}
					for lo := 0; lo < len(flips); lo += 64 {
						checkRunLanes(t, label, s, eng, a, b, flips, flipRange(lo, min(lo+64, len(flips))))
					}
					for lo := 0; lo < len(flips); lo += 32 {
						checkRunLanes(t, label, s, eng, a, b, flips, pairRange(lo, min(lo+32, len(flips))))
					}
					f := flips[int(rng.Uint64()%uint64(len(flips)))]
					if err := s.Advance(f); err != nil {
						t.Fatal(err)
					}
					a, b = flipClones(a, []Flip{f})[0], flipClones(b, []Flip{f})[0]
				}
				s.Close()
				eng.Close()
			}
		}
	}
}

// FuzzRunLanes is TestSweeperRunLanesMatchesLaunch driven by a fuzzed
// circuit seed and byte sequence: the seed picks a hidden-state circuit,
// its chain count, mode and patterns. Each byte is one lane — 0xff an
// unflipped base lane, 0x00..0x7f a flip index modulo the flip list —
// or, 0x80..0xfe, an Advance by flip (b&0x7f) modulo the list; a run of
// lanes ends at 64 lanes, at an Advance and at the end of the input. The
// sequence drives two sweepers, one on a distinct pair (A, B) and one on
// (A, A). Every lane run must encode exactly the launch of the
// materialized lane patterns, and exactly what a fresh sweeper rebased
// onto the materialized pair returns for the same map.
func FuzzRunLanes(f *testing.F) {
	f.Add(uint64(1), []byte{0xff})
	f.Add(uint64(2), []byte{0x00, 0x01, 0x02, 0xff, 0x00})
	f.Add(uint64(3), []byte{0x83, 0x05, 0x05, 0xff, 0x07, 0x01})
	f.Add(uint64(4), []byte("a lane map long enough to fill all sixty-four lanes of the run, and then some more"))
	f.Add(uint64(5), []byte{0x01, 0x81, 0x02, 0x02, 0x92, 0xff, 0x03, 0x85, 0x85, 0x04, 0xff})
	f.Fuzz(func(t *testing.T, seed uint64, data []byte) {
		if len(data) == 0 {
			return
		}
		rng := stats.NewRNG(seed)
		n := hiddenStateCircuit(t, rng)
		ch := Configure(n, 1+int(seed%3))
		mode := LOS
		if seed&4 != 0 {
			mode = LOC
		}
		flips := allFlips(ch)
		eng := NewEngine(ch)
		defer eng.Close()
		for _, ff := range n.FFs {
			if n.IsNoScan(ff) && rng.Bool() {
				eng.SetHiddenState(ff, logic.AllOne)
			}
		}
		a0, b0 := ch.RandomPattern(rng), ch.RandomPattern(rng)
		for _, same := range []bool{false, true} {
			a, b := a0, b0
			if same {
				b = a
			}
			s, err := NewSweeper(eng, mode, flips)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Rebase(a, b); err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("seed %d %v same=%v", seed, mode, same)
			lanes := make([]int, 0, 64)
			run := func() {
				if len(lanes) == 0 {
					return
				}
				checkRunLanes(t, label, s, eng, a, b, flips, lanes)
				ids, masks := s.RunLanes(lanes)
				ids, masks = append([]int(nil), ids...), append([]logic.Word(nil), masks...)
				fresh, err := NewSweeper(eng, mode, flips)
				if err != nil {
					t.Fatal(err)
				}
				if err := fresh.Rebase(a, b); err != nil {
					t.Fatal(err)
				}
				wids, wmasks := fresh.RunLanes(lanes)
				if fmt.Sprint(ids, masks) != fmt.Sprint(wids, wmasks) {
					t.Fatalf("%s lanes %v: run deviates from a fresh sweeper rebased onto the pair", label, lanes)
				}
				fresh.Close()
				lanes = lanes[:0]
			}
			for _, c := range data {
				switch {
				case c == 0xff:
					lanes = append(lanes, -1)
				case c&0x80 == 0:
					lanes = append(lanes, int(c)%len(flips))
				default:
					run()
					fl := flips[int(c&0x7f)%len(flips)]
					if err := s.Advance(fl); err != nil {
						t.Fatal(err)
					}
					a, b = flipClones(a, []Flip{fl})[0], flipClones(b, []Flip{fl})[0]
				}
				if len(lanes) == 64 {
					run()
				}
			}
			run()
			s.Close()
		}
	})
}

// TestSweeperReuseMatchesFresh guards the per-lane divergence cache
// against the full propagation it replaces. For random circuits (half
// with hidden NoScan cells pinned to random states), both modes, a pair
// (X, X) and a distinct pair, and a flip list that leaves every third
// stimulus bit out, it runs climb-like sequences: every flip read, an
// Advance by a random stimulus bit (in the list or not), every flip read
// again, and after a few steps a Rebase onto a new pair. Every run must
// encode exactly the launch of the materialized lane patterns and what a
// cold sweeper rebased onto the pair returns. Before the first Advance
// every lane read is propagated. After it, with the cache unbounded, a
// repeated read propagates nothing and, across the further Advances and
// Rebases, the sweeper propagates strictly fewer lanes than it reads;
// with the cap shrunk, lanes that do not fit fall back to propagation
// and the cache stays within the cap.
func TestSweeperReuseMatchesFresh(t *testing.T) {
	rng := stats.NewRNG(0xcac4e)
	for trial := 0; trial < 6; trial++ {
		var n *netlist.Netlist
		if trial%2 == 0 {
			var err error
			n, err = trust.Generate(trust.Params{
				Name:   "reuse",
				PIs:    1 + int(rng.Uint64()%6),
				POs:    3,
				FFs:    8 + int(rng.Uint64()%40),
				Comb:   40 + int(rng.Uint64()%120),
				Levels: 3 + int(rng.Uint64()%4),
				Seed:   rng.Uint64(),
			})
			if err != nil {
				t.Fatal(err)
			}
		} else {
			n = hiddenStateCircuit(t, rng)
		}
		ch := Configure(n, 1+int(rng.Uint64()%3))
		all := allFlips(ch)
		var flips []Flip
		for i, f := range all {
			if i%3 != 2 {
				flips = append(flips, f)
			}
		}
		for _, mode := range []Mode{LOS, LOC} {
			for _, same := range []bool{true, false} {
				for _, capped := range []bool{false, true} {
					label := fmt.Sprintf("trial %d %v same=%v capped=%v", trial, mode, same, capped)
					eng := NewEngine(ch)
					for _, ff := range n.FFs {
						if n.IsNoScan(ff) && rng.Bool() {
							eng.SetHiddenState(ff, logic.AllOne)
						}
					}
					s, err := NewSweeper(eng, mode, flips)
					if err != nil {
						t.Fatal(err)
					}
					const smallCap = 16
					s.cacheCap = 2 * len(flips) * n.NumGates() // every slot, every gate
					if capped {
						s.cacheCap = smallCap
					}
					var a, b *Pattern
					rebase := func() {
						a, b = ch.RandomPattern(rng), ch.RandomPattern(rng)
						if same {
							b = a
						}
						if err := s.Rebase(a, b); err != nil {
							t.Fatal(err)
						}
					}
					run := func(lanes []int) {
						checkRunLanes(t, label, s, eng, a, b, flips, lanes)
						ids, masks := s.RunLanes(lanes)
						ids, masks = append([]int(nil), ids...), append([]logic.Word(nil), masks...)
						if capped && len(s.cache) > smallCap {
							t.Fatalf("%s: %d cache entries over a cap of %d", label, len(s.cache), smallCap)
						}
						cold, err := NewSweeper(eng, mode, flips)
						if err != nil {
							t.Fatal(err)
						}
						defer cold.Close()
						if err := cold.Rebase(a, b); err != nil {
							t.Fatal(err)
						}
						wids, wmasks := cold.RunLanes(lanes)
						for i := 0; i < len(ids) || i < len(wids); i++ {
							if i >= len(ids) || i >= len(wids) || ids[i] != wids[i] || masks[i] != wmasks[i] {
								t.Fatalf("%s lanes %v entry %d: the warm sweeper deviates from a cold one", label, lanes, i)
							}
						}
					}
					// sweep reads every flip once, in the maps the flows
					// read on this pair, plus a random map.
					sweep := func() {
						if same {
							for lo := 0; lo < len(flips); lo += 64 {
								run(flipRange(lo, min(lo+64, len(flips))))
							}
						} else {
							for lo := 0; lo < len(flips); lo += 32 {
								run(pairRange(lo, min(lo+32, len(flips))))
							}
						}
						run(randomLaneMap(rng, len(flips)))
					}

					// Lanes are cached only once the base has advanced
					// since the last Rebase.
					rebase()
					sweep()
					sweep()
					if s.lanesPropagated != s.lanesRead {
						t.Fatalf("%s: before any Advance, %d of %d lanes read were propagated", label, s.lanesPropagated, s.lanesRead)
					}
					advance := func() {
						f := all[int(rng.Uint64()%uint64(len(all)))]
						if err := s.Advance(f); err != nil {
							t.Fatal(err)
						}
						a, b = flipClones(a, []Flip{f})[0], flipClones(b, []Flip{f})[0]
					}
					advance()
					sweep()
					prop0 := s.lanesPropagated
					sweep()
					switch again := s.lanesPropagated - prop0; {
					case !capped && again > 0:
						t.Fatalf("%s: a repeated sweep propagated %d lanes, want 0", label, again)
					case capped && again == 0:
						t.Fatalf("%s: a cap of %d entries forced no fallback", label, smallCap)
					}
					read0, prop0 := s.lanesRead, s.lanesPropagated
					for round := 0; round < 2; round++ {
						for step := 0; step < 4; step++ {
							advance()
							sweep()
						}
						rebase()
						sweep()
					}
					read, prop := s.lanesRead-read0, s.lanesPropagated-prop0
					if !capped && prop >= read {
						t.Fatalf("%s: propagated %d of %d lanes read across Advances and Rebases, want fewer", label, prop, read)
					}
					s.Close()
					eng.Close()
				}
			}
		}
	}
}
