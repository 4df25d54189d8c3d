package bench

import (
	"bytes"
	"strings"
	"testing"

	"superpose/internal/netlist"
)

// FuzzParse throws arbitrary text at Parse: it may not panic, it must
// agree gate-for-gate with the map-based reference parser
// (mapparse_test.go) or reject exactly when the reference does, and
// anything accepted must survive a Write/Parse round trip.
func FuzzParse(f *testing.F) {
	f.Add(s27)
	f.Add("INPUT(a)\nOUTPUT(b)\nb = NOT(a)\n")
	f.Add("# only a comment\n")
	f.Add("x = AND(a, b)\n")
	f.Add("INPUT(a)\nx = DFF(a)\nOUTPUT(x)\n")
	f.Add("OUTPUT(z)\nINPUT(a)\nz = BUFF(a)\ny = INV(z)\n")
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
			t.Fatalf("accepted netlist failed to serialize: %v", err)
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
