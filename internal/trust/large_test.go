package trust

import (
	"bytes"
	"reflect"
	"testing"

	"superpose/internal/bench"
	"superpose/internal/netlist"
)

// generateLarge builds the generated netlist the way the capacity
// tier does: EmitLarge text, read back by the streaming parser.
func generateLarge(t testing.TB, p LargeParams) (*netlist.Netlist, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if err := EmitLarge(&buf, p); err != nil {
		t.Fatal(err)
	}
	n, err := bench.ParseStreamSized(bytes.NewReader(buf.Bytes()), p.Name, p.TotalGates())
	if err != nil {
		t.Fatal(err)
	}
	return n, buf.Bytes()
}

// The capacity-tier generator's text must round-trip: the sized
// streaming parse agrees with the unsized one bit for bit, IDs included,
// and writing the netlist back as .bench reaches a fixpoint.
func TestLargeRoundTripBitIdentical(t *testing.T) {
	p := SizedLargeParams(20000, 0xfeed)
	sized, text := generateLarge(t, p)
	parsed, err := bench.Parse(bytes.NewReader(text), p.Name)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(parsed.Gates, sized.Gates) {
		t.Fatal("gate arrays differ between the sized and unsized parses")
	}
	if !reflect.DeepEqual(parsed.Names, sized.Names) {
		t.Fatal("name arrays differ")
	}
	if !reflect.DeepEqual(parsed.PIs, sized.PIs) || !reflect.DeepEqual(parsed.POs, sized.POs) ||
		!reflect.DeepEqual(parsed.FFs, sized.FFs) {
		t.Fatal("PI/PO/FF orders differ")
	}
	if !reflect.DeepEqual(parsed.TopoOrder(), sized.TopoOrder()) {
		t.Fatal("topological orders differ")
	}

	// Writing the netlist back is a fixpoint: the text of the re-parsed
	// netlist writes out identically.
	var first, second bytes.Buffer
	if err := bench.Write(&first, sized); err != nil {
		t.Fatal(err)
	}
	back, err := bench.Parse(bytes.NewReader(first.Bytes()), p.Name)
	if err != nil {
		t.Fatal(err)
	}
	if err := bench.Write(&second, back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("the written-back netlist does not write out identically")
	}
}

// Determinism: the same params generate the same netlist.
func TestLargeDeterministic(t *testing.T) {
	p := SizedLargeParams(5000, 7)
	a, _ := generateLarge(t, p)
	b, _ := generateLarge(t, p)
	if !reflect.DeepEqual(a.Gates, b.Gates) || !reflect.DeepEqual(a.Names, b.Names) {
		t.Fatal("generation is not deterministic")
	}
}

// Generator realism: at 10⁵ gates the shape statistics must land in the
// configured bands — logic depth near the Levels target, ISCAS-like
// mean fanin, and a fanout distribution with a busy-but-bounded tail.
func TestLargeRealismBands(t *testing.T) {
	if testing.Short() {
		t.Skip("10^5-gate generation in -short mode")
	}
	const gates = 100000
	p := SizedLargeParams(gates, 0xabc)
	n, _ := generateLarge(t, p)
	if got := n.NumGates(); got != p.TotalGates() || got < gates-2 || got > gates+2 {
		t.Fatalf("total gates = %d, want %d (target %d)", got, p.TotalGates(), gates)
	}
	if got, want := len(n.FFs), p.FFs; got != want {
		t.Fatalf("FFs = %d, want %d", got, want)
	}
	ffFrac := float64(len(n.FFs)) / float64(n.NumGates())
	if ffFrac < 0.05 || ffFrac > 0.10 {
		t.Errorf("FF fraction %.3f outside the ISCAS-like [0.05, 0.10] band", ffFrac)
	}

	// Depth: every rank must be populated; the D-pin buffers add one.
	if d := n.Depth(); d < p.Levels || d > p.Levels+1 {
		t.Errorf("depth = %d, want within [%d, %d]", d, p.Levels, p.Levels+1)
	}
	if p.Levels < 14 || p.Levels > 20 {
		t.Errorf("levels target %d at 10^5 gates outside the realistic [14, 20] band", p.Levels)
	}

	// Mean combinational fanin in the 2..4-input cell mix band.
	faninSum, combGates := 0, 0
	for _, g := range n.Gates {
		if g.Type.IsSource() {
			continue
		}
		faninSum += len(g.Fanin)
		combGates++
	}
	meanFanin := float64(faninSum) / float64(combGates)
	if meanFanin < 1.8 || meanFanin > 3.2 {
		t.Errorf("mean fanin %.2f outside [1.8, 3.2]", meanFanin)
	}

	// Fanout: heavy-hitter sources exist (shared locals) but no net
	// should drive an implausible fraction of the netlist.
	maxFanout := 0
	for id := 0; id < n.NumGates(); id++ {
		if fo := len(n.Fanouts(id)); fo > maxFanout {
			maxFanout = fo
		}
	}
	if maxFanout < 8 {
		t.Errorf("max fanout %d suspiciously uniform", maxFanout)
	}
	if maxFanout > n.NumGates()/10 {
		t.Errorf("max fanout %d exceeds 10%% of the netlist", maxFanout)
	}

	// The host must be usable by the detection flow: scan cells and POs.
	if len(n.POs) != p.POs {
		t.Errorf("POs = %d, want %d", len(n.POs), p.POs)
	}
	if got := len(n.PIs) + len(n.FFs); got != p.PIs+p.FFs {
		t.Errorf("sources = %d, want %d", got, p.PIs+p.FFs)
	}
}

func TestSizedLargeParamsScaling(t *testing.T) {
	for _, tc := range []struct {
		gates      int
		minL, maxL int
	}{
		{10000, 12, 12},
		{100000, 16, 16},
		{1000000, 20, 20},
		{10000000, 24, 24},
	} {
		p := SizedLargeParams(tc.gates, 1)
		if p.Levels < tc.minL || p.Levels > tc.maxL {
			t.Errorf("gates=%d: levels=%d, want [%d,%d]", tc.gates, p.Levels, tc.minL, tc.maxL)
		}
		if p.TotalGates() != tc.gates {
			t.Errorf("gates=%d: TotalGates=%d", tc.gates, p.TotalGates())
		}
		if err := p.validate(); err != nil {
			t.Errorf("gates=%d: %v", tc.gates, err)
		}
	}
}
