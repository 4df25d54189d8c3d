package bench

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"superpose/internal/netlist"
)

// parseMap is the map-based reference parser FuzzParse holds Parse to:
// one string per line through bufio.Scanner, built through
// netlist.Builder's string-keyed symbol map.
func parseMap(r io.Reader, name string) (*netlist.Netlist, error) {
	b := netlist.NewBuilder(name)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if err := parseLine(b, line); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", name, lineno, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return b.Build()
}

func parseLine(b *netlist.Builder, line string) error {
	// Directive form: INPUT(x) / OUTPUT(x).
	if upper := strings.ToUpper(line); strings.HasPrefix(upper, "INPUT(") || strings.HasPrefix(upper, "OUTPUT(") {
		open := strings.IndexByte(line, '(')
		closeIdx := strings.LastIndexByte(line, ')')
		if closeIdx < open {
			return fmt.Errorf("malformed directive %q", line)
		}
		arg := strings.TrimSpace(line[open+1 : closeIdx])
		if arg == "" {
			return fmt.Errorf("empty net name in %q", line)
		}
		if strings.HasPrefix(upper, "INPUT(") {
			_, err := b.AddInput(arg)
			return err
		}
		b.MarkOutput(arg)
		return nil
	}

	// Assignment form: name = TYPE(f1, f2, ...).
	eq := strings.IndexByte(line, '=')
	if eq < 0 {
		return fmt.Errorf("expected assignment, got %q", line)
	}
	lhs := strings.TrimSpace(line[:eq])
	rhs := strings.TrimSpace(line[eq+1:])
	if lhs == "" {
		return fmt.Errorf("empty net name in %q", line)
	}
	open := strings.IndexByte(rhs, '(')
	closeIdx := strings.LastIndexByte(rhs, ')')
	if open < 0 || closeIdx < open {
		return fmt.Errorf("malformed gate expression %q", rhs)
	}
	typName := strings.ToUpper(strings.TrimSpace(rhs[:open]))
	// Common .bench aliases.
	switch typName {
	case "BUFF":
		typName = "BUF"
	case "INV":
		typName = "NOT"
	}
	typ, ok := netlist.ParseGateType(typName)
	if !ok {
		return fmt.Errorf("unknown gate type %q", strings.TrimSpace(rhs[:open]))
	}
	var fanins []string
	for _, f := range strings.Split(rhs[open+1:closeIdx], ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			return fmt.Errorf("empty fanin in %q", line)
		}
		fanins = append(fanins, f)
	}
	switch typ {
	case netlist.Input:
		return fmt.Errorf("INPUT is a directive, not a gate type: %q", line)
	case netlist.DFF:
		if len(fanins) != 1 {
			return fmt.Errorf("DFF takes exactly one fanin: %q", line)
		}
		_, err := b.AddDFF(lhs, fanins[0])
		return err
	default:
		_, err := b.AddGate(lhs, typ, fanins...)
		return err
	}
}
