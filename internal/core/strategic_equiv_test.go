package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"superpose/internal/logic"
	"superpose/internal/power"
	"superpose/internal/scan"
	"superpose/internal/stats"
	"superpose/internal/trust"
)

// The strategic equivalence suite: the §IV-D search runs on a two-base
// single-flip sweep and prices the pair decomposition from lane masks.
// It must be bit-identical to the loop it replaced — clone both patterns
// per candidate, launch 32 pairs at a time through AnalyzePairs, split
// each pair's toggle lists and price the unique sets gate by gate. That
// loop survives here as referenceStrategicModify, on top of the
// toggle-list decomposition referenceAnalyzePairs.

// nominalSum is the toggle-list oracle of nominal pricing: the sum of
// the set's nominal gate energies, added in list order.
func nominalSum(m *power.Model, toggles []int) float64 {
	var p float64
	for _, id := range toggles {
		p += m.NominalOf(id)
	}
	return p
}

// nominalSumSquares is nominalSum over squared energies, each square
// rounded to float64 before it is added (no FMA), as the model's
// squared-energy table is.
func nominalSumSquares(m *power.Model, toggles []int) float64 {
	var p float64
	for _, id := range toggles {
		e := m.NominalOf(id)
		p += float64(e * e)
	}
	return p
}

// referenceAnalyzePairs is the toggle-list pair analysis: measure 32
// pairs (64 lanes) at a time, extract every lane's toggle set from the
// golden engine's frames, split each pair into common and unique lists
// and price the unique lists with nominalSum / nominalSumSquares.
func referenceAnalyzePairs(ev *Evaluator, pairs [][2]*scan.Pattern) []PairAnalysis {
	out := make([]PairAnalysis, len(pairs))
	for start := 0; start < len(pairs); start += 32 {
		group := pairs[start:min(start+32, len(pairs))]
		var flat []*scan.Pattern
		for _, pr := range group {
			flat = append(flat, pr[0], pr[1])
		}
		// The nominal pricing launched exactly this batch on the golden
		// engine; its frames still hold the batch's toggle activity.
		readings := ev.MeasureBatch(flat)
		for i, pr := range group {
			common, aU, bU := SplitToggles(ev.eng.Toggles(uint(2*i)), ev.eng.Toggles(uint(2*i+1)))
			pa := PairAnalysis{
				A: pr[0], B: pr[1],
				ObservedA: readings[2*i].Observed, ObservedB: readings[2*i+1].Observed,
				NominalA: readings[2*i].Nominal, NominalB: readings[2*i+1].Nominal,
				CommonCount:  len(common),
				AUniqueCount: len(aU), BUniqueCount: len(bU),
				NominalAUnique: nominalSum(ev.model, aU),
				NominalBUnique: nominalSum(ev.model, bU),
				UniqueEnergySq: nominalSumSquares(ev.model, aU) + nominalSumSquares(ev.model, bU),
			}
			pa.SRPD = SRPD(pa.ObservedA, pa.ObservedB, pa.NominalA, pa.NominalB,
				pa.NominalAUnique, pa.NominalBUnique)
			out[start+i] = pa
		}
	}
	return out
}

// strategicCells lists the strategic search's joint-flip candidates of a
// pattern shape: every scan cell in chain-major order, then every
// primary input, minus the critical bit.
func strategicCells(p *scan.Pattern, critical CellRef) []CellRef {
	var cells []CellRef
	for c := range p.Scan {
		for j := range p.Scan[c] {
			if c == critical.Chain && j == critical.Index {
				continue
			}
			cells = append(cells, CellRef{c, j})
		}
	}
	for i := range p.PI {
		if critical.IsPI() && i == critical.Index {
			continue
		}
		cells = append(cells, CellRef{PIChain, i})
	}
	return cells
}

// referenceStrategicModify is the clone-and-launch strategic search:
// every round materializes both patterns of every joint-flip candidate
// and analyzes them through referenceAnalyzePairs.
func referenceStrategicModify(ev *Evaluator, a, b *scan.Pattern, critical CellRef, opt StrategicOptions) StrategicResult {
	opt = opt.withDefaults()
	res := StrategicResult{Initial: referenceAnalyzePairs(ev, [][2]*scan.Pattern{{a, b}})[0]}
	curA, curB := a.Clone(), b.Clone()
	cur := res.Initial
	best := res.Initial

	for round := 0; round < opt.MaxRounds; round++ {
		cells := strategicCells(curA, critical)
		cands := make([][2]*scan.Pattern, len(cells))
		for i, cell := range cells {
			qa, qb := curA.Clone(), curB.Clone()
			applyFlip(qa, cell)
			applyFlip(qb, cell)
			cands[i] = [2]*scan.Pattern{qa, qb}
		}
		if len(cands) == 0 {
			break
		}
		analyses := referenceAnalyzePairs(ev, cands)
		curDen := cur.NominalAUnique + cur.NominalBUnique
		bestIdx := -1
		bestMag := -1.0
		for i, pa := range analyses {
			den := pa.NominalAUnique + pa.NominalBUnique
			if den == 0 || den >= curDen-1e-9 {
				continue
			}
			if mag := abs(pa.SRPD); mag > bestMag {
				bestIdx, bestMag = i, mag
			}
		}
		if bestIdx < 0 {
			break
		}
		cell := cells[bestIdx]
		res.Applied = append(res.Applied, AppliedMod{
			Cell:       cell,
			Kind:       ClassifyFlip(curA, cell.Chain, cell.Index),
			SRPDBefore: cur.SRPD,
			SRPDAfter:  analyses[bestIdx].SRPD,
		})
		curA, curB = cands[bestIdx][0], cands[bestIdx][1]
		cur = analyses[bestIdx]
		if math.IsNaN(best.SRPD) || abs(cur.SRPD) > abs(best.SRPD) {
			best = cur
		}
	}
	res.Final = best
	return res
}

// strategicTwinWalk runs the strategic search on both stacks from the
// pair (a, a with the critical bit flipped) and requires byte-identical
// result JSON and identical stream state afterwards. It returns the
// number of modifications the walk applied.
func strategicTwinWalk(t *testing.T, label string, ev, ref *Evaluator, a *scan.Pattern, critical CellRef, opt StrategicOptions) int {
	t.Helper()
	b := a.Clone()
	applyFlip(b, critical)
	got := ev.StrategicModify(a, b, critical, opt)
	want := referenceStrategicModify(ref, a.Clone(), b.Clone(), critical, opt)
	gotJSON, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("%s: strategic result deviates:\n  reference %s\n  sweep     %s", label, wantJSON, gotJSON)
	}
	assertSameStream(t, label, ev, ref, a)
	return len(got.Applied)
}

// TestStrategicSweepMatchesReference is the bit-identity contract of the
// sweep-based strategic search against the clone-and-launch loop, over
// the sweep equivalence matrix (launch modes, noise with repeats, a
// faulty tester under robust acquisition with and without drift
// compensation, spikes under naive acquisition, a clean chip) plus a
// latching tester under the stuck guard, then over
// randomized small circuits with the critical bit in a chain interior,
// at a chain end and on a primary input, flip lists that end in a
// partial chunk, and walks run to convergence.
func TestStrategicSweepMatchesReference(t *testing.T) {
	if !testing.Short() {
		// A latching tester under the stuck-latch guard on top of the
		// matrix: the guard compares the stimulus identity of consecutive
		// lanes, which the sweep keys by (base, flip) and the reference by
		// clone pointer.
		stuck := sweepEquivConfig{name: "los-stuck-robust", mode: scan.LOS, infected: true,
			noiseSigma: 0.01, regime: "stuck", robust: true, calibrate: true}
		for _, cfg := range append(sweepEquivMatrix(), stuck) {
			cfg := cfg
			t.Run(cfg.name, func(t *testing.T) {
				ev, seed := sweepEquivStack(t, cfg)
				ref, _ := sweepEquivStack(t, cfg)
				critical := CellRef{0, len(seed.Scan[0]) / 2}
				strategicTwinWalk(t, cfg.name, ev, ref, seed, critical, StrategicOptions{MaxRounds: 6})
			})
		}
	}

	rng := stats.NewRNG(0x57a7e)
	applied := 0
	for trial := 0; trial < 12; trial++ {
		params := trust.Params{
			Name:   "strategicfuzz",
			PIs:    2 + int(rng.Uint64()%5),
			POs:    3,
			FFs:    6 + int(rng.Uint64()%70),
			Comb:   40 + int(rng.Uint64()%120),
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
		noise := 0.0
		if rng.Uint64()%2 == 0 {
			noise = 0.03
		}
		stack := func() *Evaluator {
			lib := power.SAED90Like()
			chip := power.Manufacture(n, lib, power.ThreeSigmaIntra(0.12), chipSeed)
			if noise > 0 {
				chip.SetMeasurementNoise(noise)
			}
			dev := NewDevice(chip, chains, mode)
			if noise > 0 {
				dev.SetAcquisition(AcquisitionPolicy{Repeats: 3})
			}
			return NewEvaluator(n, lib, dev, chains, mode)
		}
		ev, ref := stack(), stack()
		a := ev.Chains().RandomPattern(stats.NewRNG(rng.Uint64()))

		var critical CellRef
		chain := int(rng.Uint64() % uint64(len(a.Scan)))
		switch length := len(a.Scan[chain]); {
		case trial%3 == 0 && length >= 3: // chain interior
			critical = CellRef{chain, 1 + int(rng.Uint64()%uint64(length-2))}
		case trial%3 != 2: // chain end
			critical = CellRef{chain, 0}
			if rng.Bool() {
				critical.Index = length - 1
			}
		default: // primary input
			critical = CellRef{PIChain, int(rng.Uint64() % uint64(len(a.PI)))}
		}
		// Every other trial walks to convergence; the rest stop early.
		opt := StrategicOptions{MaxRounds: 2}
		if trial%2 == 1 {
			opt.MaxRounds = 1 << 20
		}
		label := fmt.Sprintf("trial %d (%+v mode=%v chains=%d noise=%v critical=%v rounds=%d)",
			trial, params, mode, chains, noise, critical, opt.MaxRounds)
		applied += strategicTwinWalk(t, label, ev, ref, a, critical, opt)
	}
	if applied == 0 {
		t.Fatal("no randomized walk applied a modification; the suite compares nothing but initial states")
	}
}

// TestAnalyzePairsMatchesToggleLists pins the mask-level pair
// decomposition of AnalyzePairs against the toggle-list split it
// replaced, on unrelated random pairs (large unique sets) and on pairs
// one bit apart (small ones), across a full and a ragged 32-pair batch.
func TestAnalyzePairsMatchesToggleLists(t *testing.T) {
	for _, mode := range []scan.Mode{scan.LOS, scan.LOC} {
		cfg := sweepEquivConfig{name: "pairs", mode: mode, infected: true, noiseSigma: 0.02, repeats: 3}
		ev, _ := sweepEquivStack(t, cfg)
		ref, _ := sweepEquivStack(t, cfg)
		rng := stats.NewRNG(0xa11)
		var pairs [][2]*scan.Pattern
		for i := 0; i < 45; i++ {
			a := ev.Chains().RandomPattern(rng)
			b := ev.Chains().RandomPattern(rng)
			if i%2 == 1 {
				b = a.Clone()
				applyFlip(b, CellRef{int(rng.Uint64() % uint64(len(a.Scan))), 0})
			}
			pairs = append(pairs, [2]*scan.Pattern{a, b})
		}
		got := ev.AnalyzePairs(pairs)
		want := referenceAnalyzePairs(ref, pairs)
		for i := range want {
			gotJSON, _ := json.Marshal(got[i])
			wantJSON, _ := json.Marshal(want[i])
			if !bytes.Equal(gotJSON, wantJSON) {
				t.Fatalf("%v pair %d:\n  reference %s\n  masks     %s", mode, i, wantJSON, gotJSON)
			}
		}
		assertSameStream(t, mode.String(), ev, ref, pairs[0][0])
	}
}

// TestLaneCounts pins the carry-save vertical counter against a per-bit
// count, over lengths around the 16-word block size and random masks.
func TestLaneCounts(t *testing.T) {
	rng := stats.NewRNG(0xc0c0)
	for _, size := range []int{0, 1, 15, 16, 17, 31, 32, 33, 100, 1000} {
		ws := make([]logic.Word, size)
		for i := range ws {
			switch rng.Uint64() % 3 {
			case 0:
				ws[i] = logic.Word(rng.Uint64())
			case 1:
				ws[i] = ^logic.Word(0)
			}
		}
		mask := logic.Word(rng.Uint64()) | 1
		got := laneCounts(ws, mask)
		for lane := 0; lane < 64; lane++ {
			want := 0
			for _, w := range ws {
				if (w&mask)>>uint(lane)&1 != 0 {
					want++
				}
			}
			if got[lane] != want {
				t.Fatalf("size %d lane %d: count %d, want %d", size, lane, got[lane], want)
			}
		}
	}
}
