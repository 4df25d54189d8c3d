package bench

import (
	"bytes"
	"fmt"
	"io"
	"unicode"
	"unicode/utf8"

	"superpose/internal/netlist"
	"superpose/internal/textio"
)

// Parse reads a .bench netlist from r. The name is attached to the
// resulting netlist (the format itself carries no name). Lines are
// tokenized in place from a fixed bufio window, net names intern
// through netlist.Builder's byte-token API (allocating only on
// first sight of a symbol), and fanins land in a flat arena instead of
// one slice per gate. Peak memory is the interned symbol table plus the
// arenas rather than per-line garbage, which is what lets 10⁶–10⁷-gate
// files ingest within a few times their CSR footprint. FuzzParse holds
// it to gate-for-gate agreement with the map-based reference parser
// kept in the package tests.
func Parse(r io.Reader, name string) (*netlist.Netlist, error) {
	return ParseStreamSized(r, name, 0)
}

// ParseStreamSized is Parse with a pre-sizing hint for the expected
// number of nets (see netlist.NewBuilderSized).
func ParseStreamSized(r io.Reader, name string, sizeHint int) (*netlist.Netlist, error) {
	b := netlist.NewBuilderSized(name, sizeHint)
	lines := textio.NewLines(r, maxLine)
	var ids []int32 // reusable per-line fanin scratch
	lineno := 0
	for {
		line, err := lines.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		lineno++
		if i := bytes.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		if ids, err = parseLineStream(b, line, ids); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", name, lineno, err)
		}
	}
	return b.Build()
}

// maxLine mirrors the reference parser's bufio.Scanner token limit.
const maxLine = 16 * 1024 * 1024

func parseLineStream(b *netlist.Builder, line []byte, ids []int32) ([]int32, error) {
	// Directive form: INPUT(x) / OUTPUT(x).
	isInput := hasUpperPrefix(line, "INPUT(")
	if isInput || hasUpperPrefix(line, "OUTPUT(") {
		open := bytes.IndexByte(line, '(')
		closeIdx := bytes.LastIndexByte(line, ')')
		if closeIdx < open {
			return ids, fmt.Errorf("malformed directive %q", line)
		}
		arg := bytes.TrimSpace(line[open+1 : closeIdx])
		if len(arg) == 0 {
			return ids, fmt.Errorf("empty net name in %q", line)
		}
		if isInput {
			return ids, b.DefineInput(b.Intern(arg))
		}
		b.MarkOutput(string(arg))
		return ids, nil
	}

	// Assignment form: name = TYPE(f1, f2, ...).
	eq := bytes.IndexByte(line, '=')
	if eq < 0 {
		return ids, fmt.Errorf("expected assignment, got %q", line)
	}
	lhs := bytes.TrimSpace(line[:eq])
	rhs := bytes.TrimSpace(line[eq+1:])
	if len(lhs) == 0 {
		return ids, fmt.Errorf("empty net name in %q", line)
	}
	open := bytes.IndexByte(rhs, '(')
	closeIdx := bytes.LastIndexByte(rhs, ')')
	if open < 0 || closeIdx < open {
		return ids, fmt.Errorf("malformed gate expression %q", rhs)
	}
	typ, ok := parseTypeToken(bytes.TrimSpace(rhs[:open]))
	if !ok {
		return ids, fmt.Errorf("unknown gate type %q", bytes.TrimSpace(rhs[:open]))
	}

	// Validate the fanin fields before interning anything, so rejected
	// lines leave the symbol table exactly as the reference parser would.
	content := rhs[open+1 : closeIdx]
	nFanin := 0
	for field, rest := splitComma(content); ; field, rest = splitComma(rest) {
		if len(bytes.TrimSpace(field)) == 0 {
			return ids, fmt.Errorf("empty fanin in %q", line)
		}
		nFanin++
		if rest == nil {
			break
		}
	}
	switch typ {
	case netlist.Input:
		return ids, fmt.Errorf("INPUT is a directive, not a gate type: %q", line)
	case netlist.DFF:
		if nFanin != 1 {
			return ids, fmt.Errorf("DFF takes exactly one fanin: %q", line)
		}
	}

	// Interning order matches the reference parser's Builder: LHS first,
	// then the fanins left to right, so both assign identical net IDs.
	id := b.Intern(lhs)
	ids = ids[:0]
	for field, rest := splitComma(content); ; field, rest = splitComma(rest) {
		ids = append(ids, b.Intern(bytes.TrimSpace(field)))
		if rest == nil {
			break
		}
	}
	if typ == netlist.DFF {
		return ids, b.DefineDFF(id, ids[0])
	}
	return ids, b.DefineGate(id, typ, ids)
}

// splitComma returns the bytes before the first comma and the remainder
// after it (nil when no comma remains — note nil, not empty: a trailing
// comma yields a final empty field, exactly like strings.Split).
func splitComma(s []byte) (field, rest []byte) {
	if i := bytes.IndexByte(s, ','); i >= 0 {
		return s[:i], s[i+1:]
	}
	return s, nil
}

// hasUpperPrefix reports whether strings.ToUpper(line) would start with
// prefix (an ASCII upper-case literal). Decoding rune by rune keeps the
// exotic cases — 'ı' upper-cases to ASCII 'I' — identical to the reference
// parser without materializing the upper-cased line.
func hasUpperPrefix(line []byte, prefix string) bool {
	i := 0
	for j := 0; j < len(prefix); j++ {
		if i >= len(line) {
			return false
		}
		r, sz := utf8.DecodeRune(line[i:])
		if unicode.ToUpper(r) != rune(prefix[j]) {
			return false
		}
		i += sz
	}
	return true
}

// parseTypeToken resolves a gate-type token, upper-casing rune-wise the
// way strings.ToUpper would and folding the BUFF/INV aliases.
func parseTypeToken(tok []byte) (netlist.GateType, bool) {
	var up [8]byte // longest accepted name is OUTPUT/6; 8 covers all
	n := 0
	for i := 0; i < len(tok); {
		r, sz := utf8.DecodeRune(tok[i:])
		i += sz
		u := unicode.ToUpper(r)
		if u >= utf8.RuneSelf || n == len(up) {
			return 0, false // non-ASCII or too long: no type matches
		}
		up[n] = byte(u)
		n++
	}
	switch string(up[:n]) {
	case "INPUT":
		return netlist.Input, true
	case "DFF":
		return netlist.DFF, true
	case "BUF", "BUFF":
		return netlist.Buf, true
	case "NOT", "INV":
		return netlist.Not, true
	case "AND":
		return netlist.And, true
	case "NAND":
		return netlist.Nand, true
	case "OR":
		return netlist.Or, true
	case "NOR":
		return netlist.Nor, true
	case "XOR":
		return netlist.Xor, true
	case "XNOR":
		return netlist.Xnor, true
	}
	return 0, false
}
