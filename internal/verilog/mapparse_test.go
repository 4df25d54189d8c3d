package verilog

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"superpose/internal/netlist"
)

// parseMap is the map-based reference parser FuzzParse holds Parse to:
// it tokenizes the whole source into a slice and builds through
// netlist.Builder's string-keyed symbol map.
func parseMap(r io.Reader, name string) (*netlist.Netlist, error) {
	toks, err := tokenize(r)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, b: netlist.NewBuilder(name)}
	if err := p.parseModule(); err != nil {
		return nil, fmt.Errorf("verilog %s: %w", name, err)
	}
	return p.b.Build()
}

type parser struct {
	toks []token
	pos  int
	b    *netlist.Builder

	moduleName string
	outputs    []string
	inputs     map[string]bool
	declared   map[string]bool
}

type token struct {
	text string
	line int
}

// tokenize splits the source into identifiers and punctuation, dropping
// comments.
func tokenize(r io.Reader) ([]token, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 64*1024*1024)
	var toks []token
	lineno := 0
	inBlockComment := false
	for sc.Scan() {
		lineno++
		line := sc.Text()
		if inBlockComment {
			if i := strings.Index(line, "*/"); i >= 0 {
				line = line[i+2:]
				inBlockComment = false
			} else {
				continue
			}
		}
		if i := strings.Index(line, "//"); i >= 0 {
			line = line[:i]
		}
		for {
			i := strings.Index(line, "/*")
			if i < 0 {
				break
			}
			j := strings.Index(line[i+2:], "*/")
			if j < 0 {
				line = line[:i]
				inBlockComment = true
				break
			}
			line = line[:i] + " " + line[i+2+j+2:]
		}
		cur := strings.Builder{}
		flush := func() {
			if cur.Len() > 0 {
				toks = append(toks, token{cur.String(), lineno})
				cur.Reset()
			}
		}
		for _, c := range line {
			switch {
			case c == '(' || c == ')' || c == ',' || c == ';' || c == '.':
				flush()
				toks = append(toks, token{string(c), lineno})
			case c == ' ' || c == '\t' || c == '\r':
				flush()
			default:
				cur.WriteRune(c)
			}
		}
		flush()
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return toks, nil
}

func (p *parser) peek() (token, bool) {
	if p.pos >= len(p.toks) {
		return token{}, false
	}
	return p.toks[p.pos], true
}

func (p *parser) next() (token, error) {
	t, ok := p.peek()
	if !ok {
		return token{}, fmt.Errorf("unexpected end of file")
	}
	p.pos++
	return t, nil
}

func (p *parser) expect(text string) error {
	t, err := p.next()
	if err != nil {
		return err
	}
	if t.text != text {
		return fmt.Errorf("line %d: expected %q, got %q", t.line, text, t.text)
	}
	return nil
}

// ignoredNet reports clock/control nets excluded from the logic netlist.
func ignoredNet(name string) bool {
	switch strings.ToUpper(name) {
	case "CK", "CLK", "CLOCK", "GN", "SE", "SCAN_EN", "RESET", "RST", "TEST_SE":
		return true
	}
	return false
}

func (p *parser) parseModule() error {
	p.inputs = make(map[string]bool)
	p.declared = make(map[string]bool)
	if err := p.expect("module"); err != nil {
		return err
	}
	t, err := p.next()
	if err != nil {
		return err
	}
	p.moduleName = t.text
	// Port list (names only; directions come from the declarations).
	if err := p.expect("("); err != nil {
		return err
	}
	for {
		t, err := p.next()
		if err != nil {
			return err
		}
		if t.text == ")" {
			break
		}
		// names and commas; nothing to record
	}
	if err := p.expect(";"); err != nil {
		return err
	}

	for {
		t, ok := p.peek()
		if !ok {
			return fmt.Errorf("missing endmodule")
		}
		switch t.text {
		case "endmodule":
			p.pos++
			for _, o := range p.outputs {
				p.b.MarkOutput(o)
			}
			return nil
		case "input":
			p.pos++
			names, err := p.nameList()
			if err != nil {
				return err
			}
			for _, n := range names {
				if ignoredNet(n) {
					continue
				}
				p.inputs[n] = true
				if _, err := p.b.AddInput(n); err != nil {
					return err
				}
			}
		case "output":
			p.pos++
			names, err := p.nameList()
			if err != nil {
				return err
			}
			p.outputs = append(p.outputs, names...)
		case "wire":
			p.pos++
			if _, err := p.nameList(); err != nil {
				return err
			}
		default:
			if err := p.parseInstance(); err != nil {
				return err
			}
		}
	}
}

// nameList parses "a, b, c ;".
func (p *parser) nameList() ([]string, error) {
	var names []string
	for {
		t, err := p.next()
		if err != nil {
			return nil, err
		}
		switch t.text {
		case ";":
			return names, nil
		case ",":
		case "(", ")", ".":
			return nil, fmt.Errorf("line %d: unexpected %q in declaration", t.line, t.text)
		default:
			names = append(names, t.text)
		}
	}
}

// parseInstance parses one gate or flip-flop instantiation.
func (p *parser) parseInstance() error {
	kind, err := p.next()
	if err != nil {
		return err
	}
	kindName := strings.ToLower(kind.text)

	// Instance label (optional for primitives, common in netlists).
	t, err := p.next()
	if err != nil {
		return err
	}
	if t.text != "(" {
		// t was the instance name; the next token must open the ports.
		if err := p.expect("("); err != nil {
			return err
		}
	}

	// Port list: either positional or named (.PORT(net)).
	var positional []string
	named := map[string]string{}
	for {
		t, err := p.next()
		if err != nil {
			return err
		}
		switch t.text {
		case ")":
			if err := p.expect(";"); err != nil {
				return err
			}
			return p.buildInstance(kind.line, kindName, positional, named)
		case ",":
		case ".":
			port, err := p.next()
			if err != nil {
				return err
			}
			if err := p.expect("("); err != nil {
				return err
			}
			net, err := p.next()
			if err != nil {
				return err
			}
			if err := p.expect(")"); err != nil {
				return err
			}
			named[strings.ToUpper(port.text)] = net.text
		default:
			positional = append(positional, t.text)
		}
	}
}

func (p *parser) buildInstance(line int, kind string, positional []string, named map[string]string) error {
	if typ, ok := gateTypes[kind]; ok {
		if len(named) > 0 {
			return fmt.Errorf("line %d: named ports on primitive %q not supported", line, kind)
		}
		if len(positional) < 2 {
			return fmt.Errorf("line %d: %q needs an output and at least one input", line, kind)
		}
		out, ins := positional[0], positional[1:]
		if p.declared[out] {
			return fmt.Errorf("line %d: net %q driven twice", line, out)
		}
		p.declared[out] = true
		_, err := p.b.AddGate(out, typ, ins...)
		return err
	}

	// Flip-flop (any kind containing "dff" or the Trust-Hub "fd"-style
	// cells): named .Q/.D or positional (Q, D); clock/reset ports ignored.
	if strings.Contains(kind, "dff") || strings.HasPrefix(kind, "fd") {
		var q, d string
		if len(named) > 0 {
			q, d = named["Q"], named["D"]
		} else {
			var nets []string
			for _, n := range positional {
				if !ignoredNet(n) {
					nets = append(nets, n)
				}
			}
			if len(nets) >= 2 {
				q, d = nets[0], nets[1]
			}
		}
		if q == "" || d == "" {
			return fmt.Errorf("line %d: flip-flop %q needs Q and D ports", line, kind)
		}
		if p.declared[q] {
			return fmt.Errorf("line %d: net %q driven twice", line, q)
		}
		p.declared[q] = true
		_, err := p.b.AddDFF(q, d)
		return err
	}
	return fmt.Errorf("line %d: unknown cell %q", line, kind)
}
