package verilog

import (
	"bytes"
	"strings"
	"testing"

	"superpose/internal/netlist"
)

// FuzzParse throws arbitrary input at Parse: it may not panic, it must
// agree gate-for-gate with the map-based reference parser
// (mapparse_test.go) or reject exactly when the reference does, and
// accepted modules must survive a Write/Parse round trip.
func FuzzParse(f *testing.F) {
	f.Add(miniSrc)
	f.Add("module m(a);\ninput a;\nendmodule\n")
	f.Add("module m(a, z);\ninput a;\noutput z;\nnot g (z, a);\nendmodule\n")
	f.Add("module m(); endmodule")
	f.Add("module m(q);\ninput d; output q;\ndff r (.CK(ck), .Q(q), .D(d));\nendmodule\n")
	f.Add("module m(z); /* c */ input a; // x\noutput z;\nbuf g (z, a);\nendmodule\n")
	f.Fuzz(func(t *testing.T, src string) {
		n, err := Parse(strings.NewReader(src), "fuzz")
		ref, rerr := parseMap(strings.NewReader(src), "fuzz")
		if (err == nil) != (rerr == nil) {
			t.Fatalf("parser disagreement: Parse err %v, reference err %v\n%s", err, rerr, src)
		}
		if err != nil {
			return
		}
		if d := netlist.Diff(ref, n); d != "" {
			t.Fatalf("Parse differs from the reference parser: %s\n%s", d, src)
		}
		var buf bytes.Buffer
		if err := Write(&buf, n); err != nil {
			t.Fatalf("accepted module failed to serialize: %v", err)
		}
		m, err := Parse(&buf, "fuzz2")
		if err != nil {
			t.Fatalf("round trip failed: %v\n%s", err, buf.String())
		}
		if m.NumGates() != n.NumGates() {
			t.Fatalf("round trip changed gate count %d -> %d", n.NumGates(), m.NumGates())
		}
	})
}
