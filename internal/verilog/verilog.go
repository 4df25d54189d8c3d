// Package verilog reads and writes gate-level structural Verilog, the
// format the Trust-Hub benchmarks are actually distributed in. Only the
// structural subset the benchmarks use is supported:
//
//	module top(a, b, z);
//	  input a, b;
//	  output z;
//	  wire w1, w2;
//	  nand g1 (w1, a, b);      // output first, like the primitives
//	  not  g2 (w2, w1);
//	  dff  r1 (.CK(clk), .Q(q), .D(w2));   // or positional: dff r1 (q, w2);
//	  buf  g3 (z, q);
//	endmodule
//
// Primitive gates follow the Verilog convention (output terminal first).
// Flip-flops accept either the named-port form used by Trust-Hub netlists
// (.Q/.D, with clock and reset ports ignored) or a positional (Q, D)
// form. Clock and scan-enable nets are recognized by the port names CK,
// CLK, GN, SE, RESET and excluded from the logical netlist — the scan
// view models them implicitly.
package verilog

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"superpose/internal/netlist"
)

var gateTypes = map[string]netlist.GateType{
	"and": netlist.And, "nand": netlist.Nand,
	"or": netlist.Or, "nor": netlist.Nor,
	"xor": netlist.Xor, "xnor": netlist.Xnor,
	"not": netlist.Not, "inv": netlist.Not,
	"buf": netlist.Buf, "buff": netlist.Buf,
}

// Write serializes a netlist as a structural Verilog module.
func Write(w io.Writer, n *netlist.Netlist) error {
	bw := bufio.NewWriter(w)
	moduleName := sanitize(n.Name)
	if moduleName == "" {
		moduleName = "top"
	}

	names := identifiers(n)
	var ports []string
	for _, pi := range n.PIs {
		ports = append(ports, names[pi])
	}
	for _, po := range n.POs {
		ports = append(ports, names[po])
	}
	fmt.Fprintf(bw, "// %s\n", n.ComputeStats())
	fmt.Fprintf(bw, "module %s(%s);\n", moduleName, strings.Join(ports, ", "))

	for _, pi := range n.PIs {
		fmt.Fprintf(bw, "  input %s;\n", names[pi])
	}
	for _, po := range n.POs {
		fmt.Fprintf(bw, "  output %s;\n", names[po])
	}
	// Wires: every non-PI net that is not already an output port name.
	isPO := make(map[string]bool, len(n.POs))
	for _, po := range n.POs {
		isPO[names[po]] = true
	}
	for id, g := range n.Gates {
		if g.Type == netlist.Input {
			continue
		}
		name := names[id]
		if !isPO[name] {
			fmt.Fprintf(bw, "  wire %s;\n", name)
		}
	}

	gi := 0
	for _, ff := range n.FFs {
		fmt.Fprintf(bw, "  dff r%d (.Q(%s), .D(%s));\n",
			gi, names[ff], names[n.Gates[ff].Fanin[0]])
		gi++
	}
	for _, id := range n.TopoOrder() {
		g := n.Gates[id]
		var kind string
		for k, t := range gateTypes {
			if t == g.Type && k != "inv" && k != "buff" {
				kind = k
				break
			}
		}
		terms := []string{names[id]}
		for _, f := range g.Fanin {
			terms = append(terms, names[f])
		}
		fmt.Fprintf(bw, "  %s g%d (%s);\n", kind, gi, strings.Join(terms, ", "))
		gi++
	}
	fmt.Fprintln(bw, "endmodule")
	return bw.Flush()
}

// identifiers maps every net to a distinct Verilog-safe identifier,
// indexed by net ID. Names that already are identifiers are kept; the
// others are sanitized and, where that collides with a name already
// taken (both "0" and "1" sanitize to "_"), suffixed until unique.
func identifiers(n *netlist.Netlist) []string {
	names := make([]string, len(n.Names))
	taken := make(map[string]bool, len(n.Names))
	for id, name := range n.Names {
		if sanitize(name) == name {
			names[id] = name
			taken[name] = true
		}
	}
	for id, name := range n.Names {
		if names[id] != "" {
			continue
		}
		base := sanitize(name)
		cand := base
		for k := 0; taken[cand]; k++ {
			cand = fmt.Sprintf("%s_%d", base, k)
		}
		names[id] = cand
		taken[cand] = true
	}
	return names
}

// sanitize maps net names to Verilog-identifier-safe ones.
func sanitize(name string) string {
	var b strings.Builder
	for i, c := range name {
		ok := c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(c >= '0' && c <= '9' && i > 0)
		if ok {
			b.WriteRune(c)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}
