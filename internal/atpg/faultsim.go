package atpg

import (
	"context"

	"superpose/internal/logic"
	"superpose/internal/netlist"
	"superpose/internal/parallel"
	"superpose/internal/scan"
	"superpose/internal/sim"
)

// FaultSimulator evaluates which transition faults a batch of LOS patterns
// detects. It launches the good machine once per batch (64 patterns in
// parallel) and propagates each live fault event-driven through its
// fanout cone against the shared good-machine capture frame, which
// combined with fault dropping keeps total work modest. The per-fault
// propagations are independent given the shared frames, so they shard
// across a pool of workers (see SetWorkers), each owning its own cone
// propagator; the detection masks are bit-identical at every worker
// count.
//
// A FaultSimulator is not safe for concurrent use by multiple goroutines;
// the parallelism is internal.
type FaultSimulator struct {
	n       *netlist.Netlist
	ch      *scan.Chains
	eng     *scan.Engine
	obs     []int
	workers int
	props   []*sim.DeltaProp // one cone propagator per worker
}

// NewFaultSimulator returns a simulator over the scan configuration.
func NewFaultSimulator(ch *scan.Chains) *FaultSimulator {
	n := ch.Netlist()
	obs, _ := observationNets(n)
	return &FaultSimulator{
		n:   n,
		ch:  ch,
		eng: scan.NewEngine(ch),
		obs: obs,
	}
}

// SetWorkers bounds the per-fault fan-out: 0 means one worker per CPU,
// 1 the exact serial path.
func (fs *FaultSimulator) SetWorkers(w int) { fs.workers = w }

// propagators returns at least w per-worker cone propagators, each
// loaded with the shared good-machine capture frame.
func (fs *FaultSimulator) propagators(w int, good2 []logic.Word) []*sim.DeltaProp {
	for len(fs.props) < w {
		dp := sim.NewDeltaProp(fs.n)
		dp.Observe(fs.obs)
		fs.props = append(fs.props, dp)
	}
	props := fs.props[:w]
	for _, fp := range props {
		fp.SetBase(good2)
	}
	return props
}

// DetectBatch simulates up to 64 patterns and reports, per fault in
// `faults`, the lanes on which the fault is detected (launched at the site
// and observed at a PO or scan-cell D pin).
func (fs *FaultSimulator) DetectBatch(pats []*scan.Pattern, faults []Fault) []logic.Word {
	// The launch frames stay valid until the engine's next Launch, which
	// only the next DetectBatch makes.
	good1, good2, err := fs.eng.Launch(pats, scan.LOS)
	if err != nil {
		// Callers chunk into 1..64-pattern batches by construction; an
		// oversized batch here is an internal invariant violation.
		panic(err.Error())
	}

	laneMask := logic.AllOne
	if len(pats) < 64 {
		laneMask = (logic.Word(1) << uint(len(pats))) - 1
	}

	out := make([]logic.Word, len(faults))
	w := parallel.Normalize(fs.workers)
	if w > len(faults) {
		w = len(faults)
	}

	// Event-driven cone propagation per fault, against the shared
	// good-machine capture frame — O(active cone) per fault instead of a
	// full-netlist re-simulation. Contiguous shards, one worker and one
	// private propagator each; every fault writes only its own out slot.
	props := fs.propagators(max(w, 1), good2)
	if w <= 1 {
		fp := props[0]
		for i, f := range faults {
			out[i] = detectOneProp(fp, f, good1, laneMask)
		}
		return out
	}
	if err := parallel.ForEach(context.Background(), w, w, func(shard int) error {
		fp := props[shard]
		lo := shard * len(faults) / w
		hi := (shard + 1) * len(faults) / w
		for i := lo; i < hi; i++ {
			out[i] = detectOneProp(fp, faults[i], good1, laneMask)
		}
		return nil
	}); err != nil {
		// The shard body never errors; only a contained panic lands here.
		panic(err.Error())
	}
	return out
}

// detectOneProp computes one fault's detection mask: the lanes whose
// frame-1 site value equals the fault's initial value launch it, and the
// cone propagator reports on which of those the faulty capture frame
// reaches an observation point.
func detectOneProp(fp *sim.DeltaProp, f Fault, good1 []logic.Word, laneMask logic.Word) logic.Word {
	initial := logic.AllZero
	if f.Dir.initial() {
		initial = logic.AllOne
	}
	launch := ^(good1[f.Net] ^ initial) & laneMask
	if launch == 0 {
		return 0
	}
	return fp.Propagate(f.Net, initial, launch)
}

// Detects reports whether a single pattern detects the fault.
func (fs *FaultSimulator) Detects(p *scan.Pattern, f Fault) bool {
	res := fs.DetectBatch([]*scan.Pattern{p}, []Fault{f})
	return res[0]&1 != 0
}
