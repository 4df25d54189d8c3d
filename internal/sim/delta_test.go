package sim_test

import (
	"slices"
	"testing"

	"superpose/internal/logic"
	"superpose/internal/sim"
	"superpose/internal/stats"
)

// TestDeltaPropInterleavedPropagateAndRun drives one DeltaProp through
// both of its jobs in random interleaving — fault propagations
// (Propagate, many on single-lane launches so the all-lanes-covered
// early exit fires) and sweep-style multi-seed propagations
// (Begin/SeedXOR/Run, some followed by a Commit of the deviated frame or
// an XORAt of one net) — with rebases in between. Every propagation must
// match full re-simulation: Propagate's mask against RunForced's
// observed diff, and after every full drain each net's Value and the
// AppendDiverged set against the oracle frame. A commit must leave the
// deviated frame as the base; an early exit or an XORAt must leave
// nothing behind that leaks into the next propagation.
func TestDeltaPropInterleavedPropagateAndRun(t *testing.T) {
	for seed := uint64(1); seed <= 2; seed++ {
		n := ppsfpTestNetlist(t, 10+seed)
		s := sim.New(n)
		obs := obsNets(n)
		dp := sim.NewDeltaProp(n)
		dp.Observe(obs)
		rng := stats.NewRNG(31 * seed)
		src := s.SourceWords()
		var base []logic.Word
		sources := append(append([]int(nil), n.PIs...), n.FFs...)

		// checkFrame compares the propagator's full deviated state with
		// the oracle frame want.
		checkFrame := func(step int, what string, want []logic.Word) {
			t.Helper()
			var wantDiv []int32
			for id := range want {
				if got := dp.Value(id); got != want[id] {
					t.Fatalf("seed %d step %d (%s): net %d value %016x, oracle %016x",
						seed, step, what, id, got, want[id])
				}
				if want[id] != base[id] {
					wantDiv = append(wantDiv, int32(id))
				}
			}
			gotDiv := dp.AppendDiverged(nil)
			slices.Sort(gotDiv)
			if !slices.Equal(gotDiv, wantDiv) {
				t.Fatalf("seed %d step %d (%s): diverged %v, oracle %v",
					seed, step, what, gotDiv, wantDiv)
			}
		}

		early := 0
		for step := 0; step < 600; step++ {
			if step%100 == 0 {
				randomSources(n, rng, src)
				base = append(base[:0], s.Run(src)...)
				dp.SetBase(base)
			}
			if rng.Intn(2) == 0 {
				net := rng.Intn(n.NumGates())
				forced := logic.Word(rng.Uint64())
				switch rng.Intn(3) {
				case 0:
					forced = logic.AllZero
				case 1:
					forced = logic.AllOne
				}
				launch := logic.Word(rng.Uint64())
				if rng.Intn(2) == 0 {
					launch = logic.Word(1) << uint(rng.Intn(64))
				}
				faulty := s.RunForced(src, net, forced)
				var want logic.Word
				for _, o := range obs {
					want |= base[o] ^ faulty[o]
				}
				want &= launch
				got := dp.Propagate(net, forced, launch)
				if got != want {
					t.Fatalf("seed %d step %d: Propagate(net %d, %016x, launch %016x) = %016x, oracle %016x",
						seed, step, net, forced, launch, got, want)
				}
				if got == launch {
					early++ // may have stopped early: the state is partial
					continue
				}
				checkFrame(step, "propagate", faulty)
				continue
			}

			// Sweep-style: several source seeds, some on the same net (they
			// compose as XORs), some folding back to zero.
			flipped := append([]logic.Word(nil), src...)
			dp.Begin()
			for k := 1 + rng.Intn(8); k > 0; k-- {
				net := sources[rng.Intn(len(sources))]
				delta := logic.Word(rng.Uint64())
				if rng.Intn(4) == 0 {
					delta = 0
				}
				dp.SeedXOR(net, delta)
				flipped[net] ^= delta
			}
			dp.Run()
			want := s.Run(flipped)
			checkFrame(step, "run", want)
			switch rng.Intn(4) {
			case 0:
				// Commit adopts the deviated frame as the base.
				dp.Commit()
				src, base = flipped, append(base[:0], want...)
				checkFrame(step, "commit", base)
			case 1:
				// XORAt deviates one net without propagating it; the next
				// propagation's Begin must roll it back.
				net := rng.Intn(n.NumGates())
				delta := logic.Word(rng.Uint64()) | 1
				dp.XORAt(dp.Compact(net), delta)
				if got := dp.Value(net); got != want[net]^delta {
					t.Fatalf("seed %d step %d: XORAt(net %d, %016x) left %016x, want %016x",
						seed, step, net, delta, got, want[net]^delta)
				}
			}
		}
		if early == 0 {
			t.Fatalf("seed %d: no Propagate covered its launch; the early exit went unexercised", seed)
		}
	}
}
