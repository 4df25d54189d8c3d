package atpg

import (
	"runtime"
	"testing"

	"superpose/internal/logic"
	"superpose/internal/scan"
	"superpose/internal/sim"
	"superpose/internal/stats"
	"superpose/internal/trust"
)

func engineEquivChains(t testing.TB, seed uint64) *scan.Chains {
	t.Helper()
	n, err := trust.Generate(trust.Params{
		Name: "engeq", PIs: 5, POs: 5, FFs: 20, Comb: 260, Levels: 5, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return scan.Configure(n, 2)
}

// referenceDetect is the fault-simulation oracle DetectBatch is held to:
// the good machine through the per-gate sim.Simulator, then one full
// re-simulation of the capture frame per fault with the site forced to
// its initial value (RunForced), diffed at every observation net. It
// shares nothing with the PPSFP path but the LOS source assignment of
// scan.Chains.LOSSources.
func referenceDetect(ch *scan.Chains, pats []*scan.Pattern, faults []Fault) []logic.Word {
	n := ch.Netlist()
	src1 := make([]logic.Word, n.NumGates())
	src2 := make([]logic.Word, n.NumGates())
	for lane, p := range pats {
		bit := logic.Word(1) << uint(lane)
		f1, f2 := ch.LOSSources(p)
		for id := range f1 {
			src1[id] |= f1[id] & 1 * bit
			src2[id] |= f2[id] & 1 * bit
		}
	}
	s := sim.New(n)
	defer s.Release()
	good1 := append([]logic.Word(nil), s.Run(src1)...)
	good2 := append([]logic.Word(nil), s.Run(src2)...)
	laneMask := logic.AllOne
	if len(pats) < 64 {
		laneMask = logic.Word(1)<<uint(len(pats)) - 1
	}
	obs, _ := observationNets(n)

	out := make([]logic.Word, len(faults))
	for i, f := range faults {
		initial := logic.AllZero
		if f.Dir.initial() {
			initial = logic.AllOne
		}
		launch := ^(good1[f.Net] ^ initial) & laneMask
		if launch == 0 {
			continue
		}
		faulty2 := s.RunForced(src2, f.Net, initial)
		var diff logic.Word
		for _, o := range obs {
			diff |= good2[o] ^ faulty2[o]
		}
		out[i] = diff & launch
	}
	return out
}

// TestDetectBatchEngineEquivalence requires the PPSFP cone propagator to
// report the exact detection word the RunForced oracle does, for every
// collapsed fault, at the partial-lane batch sizes (1, 63, 64) and on
// the s27 benchmark plus generated circuits.
func TestDetectBatchEngineEquivalence(t *testing.T) {
	chains := []*scan.Chains{scan.Configure(parseS27(t), 1)}
	for seed := uint64(1); seed <= 2; seed++ {
		chains = append(chains, engineEquivChains(t, seed))
	}
	for _, ch := range chains {
		n := ch.Netlist()
		reps, _ := Collapse(n, FaultList(n))
		rng := stats.NewRNG(1234)
		fs := NewFaultSimulator(ch)

		for _, count := range []int{1, 63, 64} {
			pats := make([]*scan.Pattern, count)
			for i := range pats {
				pats[i] = ch.RandomPattern(rng)
			}
			want := referenceDetect(ch, pats, reps)
			got := fs.DetectBatch(pats, reps)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s count %d fault %v: ppsfp %016x, reference %016x",
						n.Name, count, reps[i], got[i], want[i])
				}
			}
			// A garbage lane beyond the batch would be a laneMask leak.
			if count < 64 {
				mask := (logic.Word(1) << uint(count)) - 1
				for i, w := range got {
					if w&^mask != 0 {
						t.Fatalf("%s count %d fault %v: detection word %016x leaks beyond lane %d",
							n.Name, count, reps[i], w, count)
					}
				}
			}
		}
	}
}

// TestDetectBatchEngineWorkerEquivalence shards the PPSFP fault loop
// across worker counts and requires bit-identical detection words — the
// per-fault propagations are independent given the shared good-machine
// frames, at any fan-out. (The name keeps it inside the CI race
// detector's equivalence run.)
func TestDetectBatchEngineWorkerEquivalence(t *testing.T) {
	ch := engineEquivChains(t, 9)
	n := ch.Netlist()
	reps, _ := Collapse(n, FaultList(n))
	rng := stats.NewRNG(55)
	pats := make([]*scan.Pattern, 64)
	for i := range pats {
		pats[i] = ch.RandomPattern(rng)
	}

	ref := referenceDetect(ch, pats, reps)
	for _, w := range []int{1, 4, runtime.NumCPU()} {
		fs := NewFaultSimulator(ch)
		fs.SetWorkers(w)
		det := fs.DetectBatch(pats, reps)
		for i := range ref {
			if det[i] != ref[i] {
				t.Fatalf("workers %d fault %v: %016x, reference %016x", w, reps[i], det[i], ref[i])
			}
		}
	}
}

// TestGenerateEngineEquivalence replays a full ATPG run through the
// RunForced oracle. Generate keeps a pattern only when it newly detects
// a live fault, so replaying the kept patterns in order must credit each
// one with at least its PerPatternDetects. The replay may credit more:
// a fault Generate closed as aborted can still be caught by a later
// pattern, which Generate deliberately never counts. The excess is
// therefore bounded by Aborted.
func TestGenerateEngineEquivalence(t *testing.T) {
	ch := engineEquivChains(t, 3)
	res, err := Generate(ch, Options{Seed: 11, RandomPatterns: 32, BacktrackLimit: 256})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Patterns) == 0 || res.Detected == 0 {
		t.Fatalf("degenerate run: %v", res)
	}
	n := ch.Netlist()
	reps, _ := Collapse(n, FaultList(n))
	if len(reps) != res.TotalFaults {
		t.Fatalf("%d collapsed faults, Generate reports %d", len(reps), res.TotalFaults)
	}

	detected := make([]bool, len(reps))
	credited := 0
	for i, p := range res.Patterns {
		det := referenceDetect(ch, []*scan.Pattern{p}, reps)
		fresh := 0
		for fi, w := range det {
			if w != 0 && !detected[fi] {
				detected[fi] = true
				fresh++
			}
		}
		if fresh < res.PerPatternDetects[i] {
			t.Fatalf("pattern %d: reference credits %d fresh detections, Generate %d",
				i, fresh, res.PerPatternDetects[i])
		}
		credited += fresh
	}
	if credited < res.Detected || credited > res.Detected+res.Aborted {
		t.Fatalf("reference replay detects %d faults, Generate %d (aborted %d)",
			credited, res.Detected, res.Aborted)
	}
}
