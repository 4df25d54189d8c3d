package sim_test

import (
	"fmt"
	"testing"

	"superpose/internal/logic"
	"superpose/internal/netlist"
	"superpose/internal/sim"
)

// deepChain builds a 50k-deep alternating NOT/BUF chain through the
// streaming builder: a depth hazard for any recursive walk in the
// build, levelization or simulation pipeline.
func deepChain(t testing.TB, depth int) (*netlist.Netlist, int, int) {
	t.Helper()
	b := netlist.NewBuilderSized("deepsim", depth+4)
	in := b.InternString("a")
	if err := b.DefineInput(in); err != nil {
		t.Fatal(err)
	}
	prev := in
	inversions := 0
	for i := 0; i < depth; i++ {
		id := b.InternString(fmt.Sprintf("c%d", i))
		typ := netlist.Not
		if i%2 == 1 {
			typ = netlist.Buf
		} else {
			inversions++
		}
		if err := b.DefineGate(id, typ, []int32{prev}); err != nil {
			t.Fatal(err)
		}
		prev = id
	}
	b.MarkOutput(fmt.Sprintf("c%d", depth-1))
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return n, int(in), inversions
}

// TestDeepChainSimulate drives the 50k-deep chain end to end through
// both simulation backends: the scalar per-gate Simulator and the
// SoA PPSFP engine must agree with the parity of the chain's
// inverters on every lane, without any stack-depth hazard.
func TestDeepChainSimulate(t *testing.T) {
	const depth = 50000
	n, in, inversions := deepChain(t, depth)
	out := n.NumGates() - 1

	s := sim.New(n)
	defer s.Release()
	sources := s.SourceWords()
	const stim = logic.Word(0xA5A5_5A5A_0F0F_F0F0)
	sources[in] = stim
	want := stim
	if inversions%2 == 1 {
		want = ^stim
	}
	vals := s.Run(sources)
	if vals[out] != want {
		t.Fatalf("scalar chain output %016x, want %016x", vals[out], want)
	}

	pp := sim.NewPPSFP(n)
	defer pp.Release()
	dst := make([]logic.Word, n.NumGates())
	pp.RunInto(sources, dst)
	for id := range dst {
		if dst[id] != vals[id] {
			t.Fatalf("PPSFP diverges from scalar at gate %d", id)
		}
	}

	// Delta propagation down the full chain: flipping the input lane-0
	// bit must deviate every gate of the chain.
	dp := sim.NewDeltaProp(n)
	defer dp.Release()
	dp.SetBase(vals)
	dp.Begin()
	dp.SeedXOR(in, 1)
	dp.Run()
	if got := dp.DeltaOf(out); got != 1 {
		t.Fatalf("delta at chain output = %x, want 1", got)
	}
	if got := dp.AppendDiverged(nil); len(got) != depth+1 {
		t.Fatalf("diverged %d gates, want %d", len(got), depth+1)
	}
}
