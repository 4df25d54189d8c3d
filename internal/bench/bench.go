// Package bench reads and writes the ISCAS-85/89 ".bench" netlist format,
// the interchange format used by the Trust-Hub benchmark suite.
//
// The grammar is line-oriented:
//
//	# comment
//	INPUT(G0)
//	OUTPUT(G17)
//	G10 = DFF(G14)
//	G12 = NAND(G1, G3)
//
// Net names may contain any characters except whitespace, '=', '(', ')'
// and ','. Gate type names are case-insensitive.
package bench

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"superpose/internal/netlist"
)

// Write serializes a netlist in .bench format. Output order is: inputs,
// outputs, flip-flops, then combinational gates in topological order, which
// round-trips through Parse to an equivalent netlist.
func Write(w io.Writer, n *netlist.Netlist) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# %s\n", n.Name)
	fmt.Fprintf(bw, "# %s\n", n.ComputeStats())
	for _, pi := range n.PIs {
		fmt.Fprintf(bw, "INPUT(%s)\n", n.Names[pi])
	}
	for _, po := range n.POs {
		fmt.Fprintf(bw, "OUTPUT(%s)\n", n.Names[po])
	}
	for _, ff := range n.FFs {
		fmt.Fprintf(bw, "%s = DFF(%s)\n", n.Names[ff], n.Names[n.Gates[ff].Fanin[0]])
	}
	for _, id := range n.TopoOrder() {
		g := n.Gates[id]
		names := make([]string, len(g.Fanin))
		for i, f := range g.Fanin {
			names[i] = n.Names[f]
		}
		fmt.Fprintf(bw, "%s = %s(%s)\n", n.Names[id], g.Type, strings.Join(names, ", "))
	}
	return bw.Flush()
}
