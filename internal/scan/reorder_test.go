package scan

import (
	"testing"

	"superpose/internal/netlist"
)

// buildRegions makes a circuit with two disjoint regions of 4 cells each:
// region A cells feed each other; region B likewise; no cross edges.
func buildRegions(t *testing.T) *netlist.Netlist {
	t.Helper()
	b := netlist.NewBuilder("regions")
	if _, err := b.AddInput("pi"); err != nil {
		t.Fatal(err)
	}
	addRegion := func(prefix string) {
		cells := []string{prefix + "0", prefix + "1", prefix + "2", prefix + "3"}
		for i, c := range cells {
			if _, err := b.AddDFF(c, "d_"+c); err != nil {
				t.Fatal(err)
			}
			_ = i
		}
		// Each cell's D depends on the next cell in the region (a ring).
		for i, c := range cells {
			nxt := cells[(i+1)%len(cells)]
			if _, err := b.AddGate("d_"+c, netlist.Xor, nxt, "pi"); err != nil {
				t.Fatal(err)
			}
			b.MarkOutput("d_" + c)
		}
	}
	addRegion("a")
	addRegion("z")
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestReorderGroupsRegions(t *testing.T) {
	n := buildRegions(t)
	c := ReorderByConnectivity(n, 2, 2)
	if c.NumChains() != 2 {
		t.Fatalf("chains = %d", c.NumChains())
	}
	// Every chain must be region-pure: all its cells share a name prefix.
	for i := 0; i < c.NumChains(); i++ {
		prefix := byte(0)
		for _, ff := range c.Chain(i) {
			name := n.NameOf(ff)
			if prefix == 0 {
				prefix = name[0]
			} else if name[0] != prefix {
				t.Errorf("chain %d mixes regions: %s", i, name)
			}
		}
	}
	// All cells covered exactly once.
	total := 0
	for i := 0; i < c.NumChains(); i++ {
		total += len(c.Chain(i))
	}
	if total != len(n.FFs) {
		t.Errorf("covered %d of %d cells", total, len(n.FFs))
	}
	for _, ff := range n.FFs {
		if _, ok := c.Position(ff); !ok {
			t.Errorf("cell %s unplaced", n.NameOf(ff))
		}
	}
}

func TestReorderDegenerateInputs(t *testing.T) {
	n := buildRegions(t)
	if c := ReorderByConnectivity(n, 0, 2); c.NumChains() != 1 {
		t.Error("numChains 0 must clamp")
	}
	if c := ReorderByConnectivity(n, 100, 0); c.NumChains() == 0 {
		t.Error("excess chains must clamp, radius 0 must default")
	}
	// Patterns built on a reordered config drive the engine fine.
	c := ReorderByConnectivity(n, 2, 2)
	e := NewEngine(c)
	p := c.NewPattern()
	p.Scan[0][1] = true
	e.Launch([]*Pattern{p}, LOS)
	if len(e.Toggles(0)) == 0 {
		t.Error("launch produced no activity")
	}
}
