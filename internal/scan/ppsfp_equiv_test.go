package scan

import (
	"testing"

	"superpose/internal/logic"
	"superpose/internal/sim"
	"superpose/internal/stats"
	"superpose/internal/trust"
)

// The launch equivalence suite: the PPSFP engine behind Engine.Launch
// must produce the exact words a per-gate sim.Simulator reference does —
// launch frames, toggle masks, sweep encodings — at every pattern count,
// including the partial-lane edges (1, 63, 64 patterns and the ragged
// final sweep chunk), and over the whole input space of every circuit in
// the exhaustive zoo. The laneMask discipline of Launch means a garbage
// lane would surface as a masks mismatch here.

func kindEquivNetlist(t testing.TB, seed uint64) *Chains {
	t.Helper()
	n, err := trust.Generate(trust.Params{
		Name: "kindeq", PIs: 4, POs: 4, FFs: 16, Comb: 200, Levels: 5, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return Configure(n, 3)
}

// exhaustiveZoo lists the brute-forceable circuits: generated multi-level
// netlists whose scan bits + PIs stay ≤ 12.
func exhaustiveZoo() []trust.Params {
	return []trust.Params{
		{Name: "xz-narrow", PIs: 2, POs: 3, FFs: 6, Comb: 60, Levels: 4, Seed: 1},
		{Name: "xz-wide", PIs: 4, POs: 4, FFs: 8, Comb: 110, Levels: 3, Seed: 2},
		{Name: "xz-deep", PIs: 2, POs: 2, FFs: 10, Comb: 150, Levels: 6, Seed: 3},
	}
}

// zooChains generates every zoo circuit and configures it with two
// chains, as the core exhaustive suite does.
func zooChains(t testing.TB) []*Chains {
	t.Helper()
	var out []*Chains
	for _, p := range exhaustiveZoo() {
		n, err := trust.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, Configure(n, 2))
	}
	return out
}

// allPatterns enumerates every assignment of the configuration's scan
// bits and PIs.
func allPatterns(t testing.TB, ch *Chains) []*Pattern {
	t.Helper()
	nScan := 0
	for i := 0; i < ch.NumChains(); i++ {
		nScan += len(ch.Chain(i))
	}
	nVars := nScan + len(ch.Netlist().PIs)
	if nVars > 12 {
		t.Fatalf("circuit too large for exhaustive enumeration (%d vars)", nVars)
	}
	pats := make([]*Pattern, 0, 1<<nVars)
	for v := 0; v < 1<<nVars; v++ {
		p := ch.NewPattern()
		k := 0
		for c := range p.Scan {
			for j := range p.Scan[c] {
				p.Scan[c][j] = v&(1<<k) != 0
				k++
			}
		}
		for i := range p.PI {
			p.PI[i] = v&(1<<k) != 0
			k++
		}
		pats = append(pats, p)
	}
	return pats
}

// referenceLaunch is the oracle Engine.Launch is held to: the two frames
// of up to 64 patterns (pattern i on lane i) through the per-gate
// sim.Simulator, with the frame sources built straight from the scan
// semantics. Under LOS frame 1 holds the one-shift-earlier state (cell 0
// pinned to its own bit) and frame 2 the loaded state; under LOC frame 1
// is the loaded state and every scannable cell captures its frame-1 D
// pin for frame 2. PIs hold across both frames, and hidden (NoScan)
// cells hold their pinned word throughout.
func referenceLaunch(ch *Chains, pats []*Pattern, mode Mode, hidden map[int]logic.Word) (f1, f2 []logic.Word) {
	n := ch.Netlist()
	src := make([]logic.Word, n.NumGates())
	for ff, w := range hidden {
		src[ff] = w
	}
	set := func(id, lane int, v bool) {
		if v {
			src[id] |= logic.Word(1) << uint(lane)
		} else {
			src[id] &^= logic.Word(1) << uint(lane)
		}
	}
	for lane, p := range pats {
		for pi, id := range n.PIs {
			set(id, lane, p.PI[pi])
		}
		for c := 0; c < ch.NumChains(); c++ {
			for j, ff := range ch.Chain(c) {
				if mode == LOS && j > 0 {
					set(ff, lane, p.Scan[c][j-1])
				} else {
					set(ff, lane, p.Scan[c][j])
				}
			}
		}
	}
	s := sim.New(n)
	defer s.Release()
	f1 = append([]logic.Word(nil), s.Run(src)...)

	switch mode {
	case LOS:
		for lane, p := range pats {
			for c := 0; c < ch.NumChains(); c++ {
				for j, ff := range ch.Chain(c) {
					set(ff, lane, p.Scan[c][j])
				}
			}
		}
	case LOC:
		for _, ff := range n.FFs {
			if !n.IsNoScan(ff) {
				src[ff] = f1[n.Gates[ff].Fanin[0]]
			}
		}
	}
	f2 = append([]logic.Word(nil), s.Run(src)...)
	return f1, f2
}

// requireLaunchMatches launches pats through eng and compares frames
// and the sparse toggle encoding against referenceLaunch.
func requireLaunchMatches(t *testing.T, eng *Engine, pats []*Pattern, mode Mode, hidden map[int]logic.Word, label string) {
	t.Helper()
	n := eng.Chains().Netlist()
	want1, want2 := referenceLaunch(eng.Chains(), pats, mode, hidden)
	got1, got2, err := eng.Launch(pats, mode)
	if err != nil {
		t.Fatal(err)
	}
	for id := range want1 {
		if got1[id] != want1[id] || got2[id] != want2[id] {
			t.Fatalf("%s %v: net %s frames (%016x,%016x), reference (%016x,%016x)",
				label, mode, n.NameOf(id), got1[id], got2[id], want1[id], want2[id])
		}
	}
	// The sparse encoding must list exactly the nets whose reference frame
	// XOR is nonzero, ascending, each with that XOR as its lane mask.
	ids, masks := eng.Toggled(nil, nil)
	k := 0
	for id := range want1 {
		want := want1[id] ^ want2[id]
		if want == 0 {
			continue
		}
		if k >= len(ids) || ids[k] != id || masks[k] != want {
			t.Fatalf("%s %v: toggled entry %d does not list net %s with reference mask %016x",
				label, mode, k, n.NameOf(id), want)
		}
		k++
	}
	if k != len(ids) {
		t.Fatalf("%s %v: Toggled lists %d nets, reference toggles %d", label, mode, len(ids), k)
	}
}

// TestEngineKindLaunchEquivalence compares full launches against the
// reference at the partial-lane pattern counts, in both LOS and LOC, and
// then over the entire input space of every zoo circuit.
func TestEngineKindLaunchEquivalence(t *testing.T) {
	ch := kindEquivNetlist(t, 21)
	rng := stats.NewRNG(31)
	eng := NewEngine(ch)
	defer eng.Close()
	for _, mode := range []Mode{LOS, LOC} {
		for _, count := range []int{1, 2, 63, 64} {
			pats := make([]*Pattern, count)
			for i := range pats {
				pats[i] = ch.RandomPattern(rng)
			}
			requireLaunchMatches(t, eng, pats, mode, nil, "random")
		}
	}

	if testing.Short() {
		return
	}
	for _, zc := range zooChains(t) {
		pats := allPatterns(t, zc)
		zeng := NewEngine(zc)
		for _, mode := range []Mode{LOS, LOC} {
			for start := 0; start < len(pats); start += 64 {
				end := min(start+64, len(pats))
				requireLaunchMatches(t, zeng, pats[start:end], mode, nil, zc.Netlist().Name)
			}
		}
		zeng.Close()
	}
}

// TestSweeperKindEquivalence runs a sweep session on the pair (X, X) —
// including the ragged final chunk and incremental Advance transitions —
// and requires every 64-flip chunk's sparse encoding to densify to the
// reference launch's toggle masks over the materialized single-flip
// clones.
func TestSweeperKindEquivalence(t *testing.T) {
	ch := kindEquivNetlist(t, 23)
	n := ch.Netlist()
	rng := stats.NewRNG(77)

	// Every stimulus bit plus duplicates: the flip count is chosen to
	// leave a short final chunk (the 65-pattern shape of the edge suite).
	flips := allFlips(ch)
	for len(flips)%64 != 1 {
		flips = append(flips, flips[0])
	}

	eng := NewEngine(ch)
	defer eng.Close()
	for _, mode := range []Mode{LOS, LOC} {
		s, err := NewSweeper(eng, mode, flips)
		if err != nil {
			t.Fatal(err)
		}

		base := ch.RandomPattern(rng)
		x := base.Clone()
		if err := s.Rebase(x, x); err != nil {
			t.Fatal(err)
		}
		compare := func(step string) {
			t.Helper()
			for lo := 0; lo < len(flips); lo += 64 {
				c, chunk := lo/64, flips[lo:min(lo+64, len(flips))]
				ids, masks := s.RunLanes(flipRange(lo, lo+len(chunk)))
				got := densify(n.NumGates(), ids, masks)
				r1, r2 := referenceLaunch(ch, flipClones(base, chunk), mode, nil)
				for id := range got {
					if want := (r1[id] ^ r2[id]) & laneMaskOf(len(chunk)); got[id] != want {
						t.Fatalf("%v %s chunk %d gate %s: toggles %016x, reference %016x",
							mode, step, c, n.NameOf(id), got[id], want)
					}
				}
			}
		}
		compare("rebased")

		// Two accepted climb steps: Advance must stay equivalent too.
		for step := 0; step < 2; step++ {
			f := flips[rng.Intn(len(flips))]
			if err := s.Advance(f); err != nil {
				t.Fatal(err)
			}
			base = flipClones(base, []Flip{f})[0]
			compare("advanced")
		}
		s.Close()
	}
}
