package atpg

import (
	"fmt"

	"superpose/internal/logic"
	"superpose/internal/scan"
	"superpose/internal/stats"
)

// Options configures a test-generation run.
type Options struct {
	// BacktrackLimit bounds the PODEM search per fault; a fault whose
	// search exceeds it is counted as aborted. Default 256.
	BacktrackLimit int
	// RandomPatterns is the number of random LOS patterns fault-simulated
	// before deterministic generation starts (knocks out the easy faults
	// cheaply, as commercial flows do). Default 64. Random patterns that
	// detect nothing are discarded.
	RandomPatterns int
	// MaxPatterns caps the emitted pattern count (0 = unlimited).
	MaxPatterns int
	// MaxFaults caps how many collapsed faults are targeted
	// deterministically (0 = all). Faults beyond the cap still count in
	// coverage if random patterns or fault dropping catch them.
	MaxFaults int
	// FaultSample, when positive, restricts the whole run (simulation and
	// targeting) to an evenly spaced sample of the collapsed fault list.
	// Coverage is then reported over the sample. This is the scalability
	// knob for the large benchmark circuits, where the experiments need
	// seed patterns rather than full manufacturing-grade coverage.
	FaultSample int
	// Seed drives random fill and random-pattern generation.
	Seed uint64
	// NDetect, when above 1, keeps targeting each fault until it has been
	// detected by that many distinct patterns. N-detect sets increase the
	// chance of incidental Trojan activation, the reason side-channel
	// methods (the paper's [9]) favour them over single-detect sets.
	NDetect int
	// Workers bounds the fault-simulation fan-out (per-fault cone
	// propagations shard across a pool of propagators; see
	// internal/parallel): 0 means one worker per CPU, 1 the exact
	// serial path. Generation output is bit-identical at every worker
	// count — each fault's detection mask depends only on the shared
	// good-machine frames.
	Workers int
}

func (o Options) withDefaults() Options {
	if o.BacktrackLimit == 0 {
		o.BacktrackLimit = 256
	}
	if o.RandomPatterns == 0 {
		o.RandomPatterns = 64
	}
	if o.NDetect < 1 {
		o.NDetect = 1
	}
	return o
}

// Result is the outcome of a generation run.
type Result struct {
	Patterns []*scan.Pattern

	TotalFaults int // collapsed fault count
	Detected    int
	Untestable  int // proven untestable (search exhausted)
	Aborted     int // backtrack limit hit
	NotTargeted int // beyond MaxFaults and never detected

	// NDetectSatisfied counts faults detected by the full NDetect quota of
	// distinct patterns (equals Detected when NDetect == 1).
	NDetectSatisfied int

	// PerPatternDetects[i] is how many previously-undetected faults
	// pattern i detected when it was added.
	PerPatternDetects []int
}

// Coverage returns detected / total over the collapsed fault list.
func (r *Result) Coverage() float64 {
	if r.TotalFaults == 0 {
		return 0
	}
	return float64(r.Detected) / float64(r.TotalFaults)
}

// String summarizes the run.
func (r *Result) String() string {
	return fmt.Sprintf("atpg: %d patterns, %d/%d faults detected (%.1f%%), %d untestable, %d aborted, %d untargeted",
		len(r.Patterns), r.Detected, r.TotalFaults, 100*r.Coverage(), r.Untestable, r.Aborted, r.NotTargeted)
}

// Generate produces LOS transition-delay test patterns for the scan
// configuration's netlist.
func Generate(ch *scan.Chains, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	n := ch.Netlist()
	if len(n.FFs) == 0 && len(n.PIs) == 0 {
		return nil, fmt.Errorf("atpg: netlist %q has no controllable inputs", n.Name)
	}

	reps, _ := Collapse(n, FaultList(n))
	if opt.FaultSample > 0 && len(reps) > opt.FaultSample {
		sampled := make([]Fault, 0, opt.FaultSample)
		step := float64(len(reps)) / float64(opt.FaultSample)
		for i := 0; i < opt.FaultSample; i++ {
			sampled = append(sampled, reps[int(float64(i)*step)])
		}
		reps = sampled
	}

	// remaining[i] is the number of further distinct detections fault i
	// needs; 0 means done (satisfied, untestable or aborted).
	remaining := make([]int, len(reps))
	for i := range remaining {
		remaining[i] = opt.NDetect
	}
	everDetected := make([]bool, len(reps))
	liveCount := len(reps)
	closeFault := func(i int) {
		if remaining[i] > 0 {
			remaining[i] = 0
			liveCount--
		}
	}

	res := &Result{TotalFaults: len(reps)}
	fsim := NewFaultSimulator(ch)
	fsim.SetWorkers(opt.Workers)
	rng := stats.NewRNG(opt.Seed)

	// liveList materializes the faults still needing detections.
	liveList := func() ([]Fault, []int) {
		var fl []Fault
		var idx []int
		for i, f := range reps {
			if remaining[i] > 0 {
				fl = append(fl, f)
				idx = append(idx, i)
			}
		}
		return fl, idx
	}

	// absorb fault-simulates a batch of candidate patterns and keeps those
	// that contribute a needed detection. Each detecting lane is a
	// distinct pattern, so one batch can retire several of a fault's
	// n-detect quota.
	absorb := func(batch []*scan.Pattern) {
		if len(batch) == 0 || liveCount == 0 {
			return
		}
		fl, idx := liveList()
		det := fsim.DetectBatch(batch, fl)
		perPattern := make([]int, len(batch))
		for fi, mask := range det {
			if mask == 0 {
				continue
			}
			i := idx[fi]
			if !everDetected[i] {
				everDetected[i] = true
				res.Detected++
			}
			for lane := 0; mask != 0 && remaining[i] > 0; lane++ {
				if mask&1 != 0 {
					perPattern[lane]++
					remaining[i]--
				}
				mask >>= 1
			}
			if remaining[i] == 0 {
				liveCount--
				res.NDetectSatisfied++
			}
		}
		for lane, p := range batch {
			if perPattern[lane] > 0 {
				res.Patterns = append(res.Patterns, p)
				res.PerPatternDetects = append(res.PerPatternDetects, perPattern[lane])
			}
		}
	}

	// Phase 1: random patterns.
	for done := 0; done < opt.RandomPatterns && liveCount > 0; {
		size := opt.RandomPatterns - done
		if size > 64 {
			size = 64
		}
		batch := make([]*scan.Pattern, size)
		for i := range batch {
			batch[i] = ch.RandomPattern(rng)
		}
		absorb(batch)
		done += size
		if opt.MaxPatterns > 0 && len(res.Patterns) >= opt.MaxPatterns {
			res.NotTargeted = liveCount
			return res, nil
		}
	}

	// Phase 2: deterministic PODEM passes. Each pass targets every fault
	// still owing detections; later passes reuse the same care bits with
	// fresh random fill, which is what makes the extra detections
	// distinct. Untestable/aborted verdicts close a fault permanently.
	e := newExpansion(n, ch)
	var p *podem // one decision engine, retargeted per fault
	targeted := 0
	for pass := 0; pass < opt.NDetect && liveCount > 0; pass++ {
		progress := false
		for i, f := range reps {
			if remaining[i] <= 0 || liveCount == 0 {
				continue
			}
			if opt.MaxFaults > 0 && targeted >= opt.MaxFaults {
				break
			}
			if opt.MaxPatterns > 0 && len(res.Patterns) >= opt.MaxPatterns {
				break
			}
			targeted++

			if p == nil {
				p = newPodem(e, f)
			} else {
				p.reset(f)
			}
			g := p.run(opt.BacktrackLimit)
			switch {
			case g.ok:
				before := remaining[i]
				pat := extractPattern(ch, e, p.assign, rng)
				absorb([]*scan.Pattern{pat})
				for retry := 0; retry < 4 && remaining[i] == before; retry++ {
					// Random fill spoiled the detection (possible when
					// fill interacts with multi-path propagation); retry
					// with a different fill before giving up.
					absorb([]*scan.Pattern{extractPattern(ch, e, p.assign, rng)})
				}
				if remaining[i] == before {
					res.Aborted++
					closeFault(i)
				} else {
					progress = true
				}
			case g.aborted:
				res.Aborted++
				closeFault(i)
			default:
				res.Untestable++
				closeFault(i)
			}
		}
		if !progress {
			break
		}
	}
	res.NotTargeted = 0
	for i := range reps {
		if remaining[i] > 0 && !everDetected[i] {
			res.NotTargeted++
		}
	}
	return res, nil
}

// extractPattern converts a PODEM assignment (care bits) into a concrete
// pattern, filling don't-cares randomly.
func extractPattern(ch *scan.Chains, e *expansion, assign []logic.V, rng *stats.RNG) *scan.Pattern {
	p := ch.NewPattern()
	for c := 0; c < ch.NumChains(); c++ {
		for j := range ch.Chain(c) {
			switch assign[e.scanVar(c, j)] {
			case logic.One:
				p.Scan[c][j] = true
			case logic.Zero:
				p.Scan[c][j] = false
			default:
				p.Scan[c][j] = rng.Bool()
			}
		}
	}
	n := ch.Netlist()
	for i, pi := range n.PIs {
		switch assign[e.piVar[pi]] {
		case logic.One:
			p.PI[i] = true
		case logic.Zero:
			p.PI[i] = false
		default:
			p.PI[i] = rng.Bool()
		}
	}
	return p
}
