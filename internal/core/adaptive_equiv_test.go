package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"superpose/internal/power"
	"superpose/internal/scan"
	"superpose/internal/stats"
	"superpose/internal/tester"
	"superpose/internal/trust"
)

// The adaptive equivalence suite: every reading of the §IV-B climb —
// the seed, the candidate chunks, the §IV-C screen pairs, the
// confirmation and the accepted pair — runs on the single-flip sweep.
// The climb it replaced measured the candidates on the sweep but
// launched everything else as materialized patterns through
// Evaluator.Measure, AnalyzePairs and AnalyzePair. That climb survives
// here as referenceAdaptive and judges the lane-addressed one: same
// AdaptiveResult bytes, same acquisition and tester accounting, same
// next reading.

// referenceAdaptive is the launch-based climb: Evaluator.AdaptiveContext
// as it was before the screen, confirmation and accepted pair moved onto
// lane runs, without the context and progress plumbing. Its candidate
// chunks read the Evaluator's sweep session, rebased onto (cur, cur).
func referenceAdaptive(ev *Evaluator, seed *scan.Pattern, opt AdaptiveOptions) *AdaptiveResult {
	opt = opt.withDefaults(seed)
	cur := seed.Clone()
	res := &AdaptiveResult{
		Steps: []AdaptiveStep{{
			Pattern:     cur,
			Reading:     ev.Measure(cur),
			Flipped:     CellRef{-1, -1},
			Transitions: cur.TransitionCount(),
		}},
	}
	sweep := ev.sweep()
	cands := sweep.cands
	if len(cands) == 0 {
		return res
	}
	residuals := make([]float64, len(cands))
	if err := sweep.Rebase(cur, cur); err != nil {
		panic(err)
	}
	patternAt := func(idx int) *scan.Pattern {
		q := cur.Clone()
		applyFlip(q, cands[idx])
		return q
	}
	for step := 0; step < opt.MaxSteps; step++ {
		curReading := res.Steps[len(res.Steps)-1].Reading
		bestIdx, bestRPD := -1, 0.0
		for start := 0; start < len(cands); start += 64 {
			var chunk []int
			for idx := start; idx < min(start+64, len(cands)); idx++ {
				chunk = append(chunk, idx)
			}
			for i, rd := range sweep.MeasureLanes(nil, chunk) {
				if !math.IsNaN(rd.RPD) && (bestIdx < 0 || rd.RPD > bestRPD) {
					bestIdx, bestRPD = start+i, rd.RPD
				}
				residuals[start+i] = abs((curReading.Observed - rd.Observed) -
					(curReading.Nominal - rd.Nominal))
			}
		}

		top := topIndices(residuals, opt.ScreenTop)
		pairs := make([][2]*scan.Pattern, len(top))
		topPats := make([]*scan.Pattern, len(top))
		for i, idx := range top {
			topPats[i] = patternAt(idx)
			pairs[i] = [2]*scan.Pattern{cur, topPats[i]}
		}
		for i, pa := range ev.AnalyzePairs(pairs) {
			if abs(pa.SRPD) > opt.DropThreshold {
				res.Pairs = append(res.Pairs, PairCandidate{
					A: cur, B: topPats[i], Critical: cands[top[i]],
					SRPD: pa.SRPD, Significance: pa.Significance(),
				})
			}
		}

		if bestIdx < 0 || bestRPD <= curReading.RPD+minGain {
			break
		}
		chosen := cands[bestIdx]
		next := patternAt(bestIdx)
		confirm := ev.Measure(next)
		if math.IsNaN(confirm.RPD) || confirm.RPD <= curReading.RPD+minGain {
			continue
		}
		res.Steps = append(res.Steps, AdaptiveStep{
			Pattern:     next,
			Reading:     confirm,
			Flipped:     chosen,
			Transitions: next.TransitionCount(),
		})
		pa := ev.AnalyzePair(cur, next)
		if mag := abs(pa.SRPD); mag > opt.DropThreshold {
			res.Pairs = append(res.Pairs, PairCandidate{
				A: cur, B: next, Critical: chosen,
				SRPD: pa.SRPD, Significance: pa.Significance(),
			})
		}
		if err := sweep.Advance(chosen, next, next); err != nil {
			panic(err)
		}
		cur = next
	}

	for i, s := range res.Steps {
		if s.Reading.RPD > res.Steps[res.Best].Reading.RPD {
			res.Best = i
		}
	}
	return res
}

// adaptiveTwinClimb climbs from every seed on both stacks — ev through
// Adaptive (whose cached sweep session carries over between climbs),
// ref through referenceAdaptive — and requires byte-identical result
// JSON per climb and identical stream state afterwards. It returns the
// number of pairs the climbs flagged.
func adaptiveTwinClimb(t *testing.T, label string, ev, ref *Evaluator, seeds []*scan.Pattern, opt AdaptiveOptions) int {
	t.Helper()
	flagged := 0
	for i, seed := range seeds {
		got := ev.Adaptive(seed, opt)
		want := referenceAdaptive(ref, seed, opt)
		gotJSON, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		wantJSON, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Fatalf("%s climb %d: adaptive result deviates:\n  reference %s\n  lanes     %s", label, i, wantJSON, gotJSON)
		}
		flagged += len(got.Pairs)
	}
	assertSameStream(t, label, ev, ref, seeds[0])
	return flagged
}

// stuckEquivConfig is a latching tester under the stuck-latch guard,
// which compares the stimulus identity of consecutive readings: the
// lane runs must key their lanes by the same pattern pointers the
// reference's batch launches do.
var stuckEquivConfig = sweepEquivConfig{name: "los-stuck-robust", mode: scan.LOS, infected: true,
	noiseSigma: 0.01, regime: "stuck", robust: true, calibrate: true}

// TestAdaptiveMatchesReference is the bit-identity contract of the
// lane-addressed climb against the launch-based one, over the sweep
// equivalence matrix (launch modes, noise with repeats, a faulty tester
// under robust acquisition with and without drift compensation, spikes
// under naive acquisition, a clean chip) plus a latching tester under
// the stuck guard — two climbs per regime, the second screening more
// than one 32-pair lane run at a low drop threshold — then over
// randomized small circuits climbed to convergence.
func TestAdaptiveMatchesReference(t *testing.T) {
	flagged := 0
	if !testing.Short() {
		for _, cfg := range append(sweepEquivMatrix(), stuckEquivConfig) {
			cfg := cfg
			t.Run(cfg.name, func(t *testing.T) {
				ev, seed := sweepEquivStack(t, cfg)
				ref, _ := sweepEquivStack(t, cfg)
				defer ev.Close()
				defer ref.Close()
				second := ev.Chains().RandomPattern(stats.NewRNG(23))
				flagged += adaptiveTwinClimb(t, cfg.name, ev, ref, []*scan.Pattern{seed}, AdaptiveOptions{MaxSteps: 8})
				flagged += adaptiveTwinClimb(t, cfg.name, ev, ref, []*scan.Pattern{second},
					AdaptiveOptions{MaxSteps: 6, ScreenTop: 40, DropThreshold: 1e-3})
			})
		}
	}

	rng := stats.NewRNG(0xada97)
	for trial := 0; trial < 10; trial++ {
		params := trust.Params{
			Name:   "adaptivefuzz",
			PIs:    2 + int(rng.Uint64()%5),
			POs:    3,
			FFs:    6 + int(rng.Uint64()%40),
			Comb:   40 + int(rng.Uint64()%100),
			Levels: 3 + int(rng.Uint64()%3),
			Seed:   rng.Uint64(),
		}
		n, err := trust.Generate(params)
		if err != nil {
			t.Fatal(err)
		}
		mode := scan.LOS
		if rng.Uint64()%2 == 0 {
			mode = scan.LOC
		}
		chains := 1 + int(rng.Uint64()%3)
		chipSeed := rng.Uint64()
		regime := ""
		switch trial % 3 {
		case 1:
			regime = "stuck"
		case 2:
			regime = "combined"
		}
		stack := func() *Evaluator {
			lib := power.SAED90Like()
			chip := power.Manufacture(n, lib, power.ThreeSigmaIntra(0.12), chipSeed)
			dev := NewDevice(chip, chains, mode)
			if regime != "" {
				chip.SetMeasurementNoise(0.02)
				dev.SetAcquisition(RobustAcquisition())
				tc, err := tester.Preset(regime, chipSeed)
				if err != nil {
					t.Fatal(err)
				}
				dev.SetFaultModel(tester.New(tc))
			}
			return NewEvaluator(n, lib, dev, chains, mode)
		}
		ev, ref := stack(), stack()
		prng := stats.NewRNG(rng.Uint64())
		seeds := []*scan.Pattern{ev.Chains().RandomPattern(prng), ev.Chains().RandomPattern(prng)}
		opt := AdaptiveOptions{DropThreshold: 0.005}
		if trial%2 == 1 {
			opt.ScreenTop = 33
		}
		label := fmt.Sprintf("trial %d (%+v mode=%v chains=%d regime=%q)", trial, params, mode, chains, regime)
		flagged += adaptiveTwinClimb(t, label, ev, ref, seeds, opt)
		ev.Close()
		ref.Close()
	}
	if flagged == 0 {
		t.Fatal("no climb flagged a pair; the suite never compares the screen")
	}
}

// TestSweepMeasureLanesMatchesBatch pins the lane-addressed measurement
// itself: random lane maps over the sweep session — up to 64 lanes,
// unflipped lanes sharing their base's pointer as the climb's screen
// does, flips repeated on lanes of their own clones — must read
// bit-identically to Evaluator.MeasureBatch over the same patterns, even
// maps must analyze like AnalyzePairs, and unmaterialized maps of
// distinct flips must read like their fresh clones. It runs across the
// sweep equivalence matrix, a latching tester, and a noiseless latching
// tester (where every pair of repeated-flip lanes reads exactly equal,
// so the stuck guard's verdict rests on the lane keys alone), first on
// the pair (X, X), then on a distinct pair, with Advances in between and
// identical stream state at the end.
func TestSweepMeasureLanesMatchesBatch(t *testing.T) {
	noiseless := sweepEquivConfig{name: "loc-stuck-noiseless", mode: scan.LOC, infected: true,
		regime: "stuck", robust: true}
	for _, cfg := range append(sweepEquivMatrix(), stuckEquivConfig, noiseless) {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			ev, cur := sweepEquivStack(t, cfg)
			ref, _ := sweepEquivStack(t, cfg)
			defer ev.Close()
			defer ref.Close()
			sw := ev.sweep()
			cands := sw.cands
			a, b := cur, cur
			if err := sw.Rebase(a, b); err != nil {
				t.Fatal(err)
			}
			rng := stats.NewRNG(0x1a7e5)
			for k := 0; k < 36; k++ {
				if k == 18 {
					b = ev.Chains().RandomPattern(rng)
					if err := sw.Rebase(a, b); err != nil {
						t.Fatal(err)
					}
				}
				// lanePattern materializes lane l with candidate idx applied.
				lanePattern := func(l, idx int) *scan.Pattern {
					base := a
					if l%2 == 1 {
						base = b
					}
					if idx < 0 {
						return base
					}
					q := base.Clone()
					applyFlip(q, cands[idx])
					return q
				}
				lanes := make([]int, 1+int(rng.Uint64()%64))
				pats := make([]*scan.Pattern, len(lanes))
				if k%3 == 1 {
					// An unmaterialized map: distinct flips, keyed by base
					// and flip, read against fresh clones.
					start := int(rng.Uint64() % uint64(len(cands)))
					for l := range lanes {
						lanes[l] = (start + l) % len(cands)
						pats[l] = lanePattern(l, lanes[l])
					}
					want := ref.MeasureBatch(pats)
					for l, rd := range sw.MeasureLanes(nil, lanes) {
						if !sameReading(rd, want[l]) {
							t.Fatalf("map %d lanes %v lane %d: %+v, reference %+v", k, lanes, l, rd, want[l])
						}
					}
					continue
				}
				for l := range lanes {
					switch r := rng.Uint64() % 4; {
					case r == 0:
						lanes[l] = -1
					case r == 1 && l > 0:
						lanes[l] = lanes[int(rng.Uint64()%uint64(l))]
					default:
						lanes[l] = int(rng.Uint64() % uint64(len(cands)))
					}
					pats[l] = lanePattern(l, lanes[l])
				}
				if k%3 == 2 && len(lanes) > 1 {
					lanes, pats = lanes[:len(lanes)&^1], pats[:len(pats)&^1]
					pairs := make([][2]*scan.Pattern, len(pats)/2)
					for i := range pairs {
						pairs[i] = [2]*scan.Pattern{pats[2*i], pats[2*i+1]}
					}
					got, _ := json.Marshal(sw.AnalyzeLanes(pats, lanes))
					want, _ := json.Marshal(ref.AnalyzePairs(pairs))
					if !bytes.Equal(got, want) {
						t.Fatalf("map %d lanes %v: pair analysis deviates:\n  reference %s\n  lanes     %s", k, lanes, want, got)
					}
				} else {
					want := ref.MeasureBatch(pats)
					for l, rd := range sw.MeasureLanes(pats, lanes) {
						if !sameReading(rd, want[l]) {
							t.Fatalf("map %d lanes %v lane %d: %+v, reference %+v", k, lanes, l, rd, want[l])
						}
					}
				}
				if k%4 == 3 {
					i := int(rng.Uint64() % uint64(len(cands)))
					nextA, nextB := a.Clone(), b
					applyFlip(nextA, cands[i])
					if b == a {
						nextB = nextA
					} else {
						nextB = b.Clone()
						applyFlip(nextB, cands[i])
					}
					if err := sw.Advance(cands[i], nextA, nextB); err != nil {
						t.Fatal(err)
					}
					a, b = nextA, nextB
				}
			}
			cur = a
			assertSameStream(t, cfg.name, ev, ref, cur)
		})
	}
}
