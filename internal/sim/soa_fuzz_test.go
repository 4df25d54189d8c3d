package sim_test

import (
	"fmt"
	"testing"

	"superpose/internal/logic"
	"superpose/internal/netlist"
	"superpose/internal/sim"
	"superpose/internal/stats"
)

// fuzzNetlist deterministically decodes a byte stream into a random
// netlist: a handful of PIs and DFFs, then a gate list whose types and
// fanins are drawn from the bytes. Every byte stream decodes to some
// valid netlist (draws are taken modulo the legal range), so the fuzzer
// explores structure — fanout shapes, reconvergence, gate mixes, DFF
// D-pin placement — rather than parser error paths.
func fuzzNetlist(data []byte) (*netlist.Netlist, error) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}

	b := netlist.NewBuilder("fuzz")
	numPIs := 1 + next()%4
	var nets []string
	for i := 0; i < numPIs; i++ {
		name := fmt.Sprintf("pi%d", i)
		if _, err := b.AddInput(name); err != nil {
			return nil, err
		}
		nets = append(nets, name)
	}

	types := []netlist.GateType{
		netlist.And, netlist.Nand, netlist.Or, netlist.Nor,
		netlist.Xor, netlist.Xnor, netlist.Not, netlist.Buf,
	}
	numGates := 1 + next()%64
	for i := 0; i < numGates; i++ {
		typ := types[next()%len(types)]
		arity := 1
		if typ != netlist.Not && typ != netlist.Buf {
			arity = 2 + next()%3
		}
		fanin := make([]string, arity)
		for j := range fanin {
			fanin[j] = nets[next()%len(nets)]
		}
		name := fmt.Sprintf("g%d", i)
		if _, err := b.AddGate(name, typ, fanin...); err != nil {
			return nil, err
		}
		nets = append(nets, name)
	}

	// A few DFFs whose D pins tap arbitrary nets, plus outputs, so the
	// SoA compile sees source readers (frame boundaries) and POs.
	numFFs := next() % 4
	for i := 0; i < numFFs; i++ {
		if _, err := b.AddDFF(fmt.Sprintf("ff%d", i), nets[next()%len(nets)]); err != nil {
			return nil, err
		}
	}
	for i := 0; i < 1+next()%3; i++ {
		b.MarkOutput(nets[len(nets)-1-next()%len(nets)])
	}
	return b.Build()
}

// FuzzSoA drives random netlist structures through the SoA compile and
// the PPSFP engine, holding Simulator.Run as the oracle: every net of
// every decoded circuit must evaluate bit-identically, and fault
// propagation through DeltaProp.Propagate must agree with RunForced on
// a sampled fault site.
func FuzzSoA(f *testing.F) {
	f.Add([]byte{3, 10, 0, 1, 2, 4, 1, 0, 7, 3, 2, 2, 1})
	f.Add([]byte{1, 63, 6, 1, 0, 5, 2, 2, 0, 1, 3, 0, 0, 2, 9, 8})
	f.Add([]byte{4, 32, 2, 250, 17, 99, 5, 1, 1, 1, 1, 7})

	f.Fuzz(func(t *testing.T, data []byte) {
		n, err := fuzzNetlist(data)
		if err != nil {
			t.Fatalf("fuzzNetlist must always decode a valid netlist: %v", err)
		}

		s := sim.New(n)
		pp := sim.NewPPSFP(n)
		obs := obsNets(n)
		fp := sim.NewDeltaProp(n)
		fp.Observe(obs)

		// Seed the stimulus from the structure bytes so every corpus
		// entry is fully reproducible.
		var h uint64 = 1469598103934665603
		for _, c := range data {
			h = (h ^ uint64(c)) * 1099511628211
		}
		rng := stats.NewRNG(h)
		src := s.SourceWords()
		dst := make([]logic.Word, n.NumGates())

		for round := 0; round < 2; round++ {
			randomSources(n, rng, src)
			want := s.Run(src)
			pp.RunInto(src, dst)
			for id := range want {
				if dst[id] != want[id] {
					t.Fatalf("net %d (%s): PPSFP %016x, scalar %016x",
						id, n.NameOf(id), dst[id], want[id])
				}
			}

			base := append([]logic.Word(nil), want...)
			fp.SetBase(base)
			for trial := 0; trial < 4; trial++ {
				net := rng.Intn(n.NumGates())
				forced := logic.Word(rng.Uint64())
				launch := logic.Word(rng.Uint64())
				faulty := s.RunForced(src, net, forced)
				var oracle logic.Word
				for _, o := range obs {
					oracle |= base[o] ^ faulty[o]
				}
				oracle &= launch
				if got := fp.Propagate(net, forced, launch); got != oracle {
					t.Fatalf("fault at net %d forced %016x: prop %016x, oracle %016x",
						net, forced, got, oracle)
				}
			}
		}
	})
}
