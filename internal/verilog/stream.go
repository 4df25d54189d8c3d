package verilog

import (
	"bytes"
	"fmt"
	"io"
	"unicode"
	"unicode/utf8"

	"superpose/internal/netlist"
	"superpose/internal/textio"
)

// Parse reads a structural Verilog module into a netlist. The lexer
// tokenizes one line at a time from a fixed bufio window instead of
// materializing the whole file's token slice, and net names intern
// straight into a netlist.Builder, so peak memory is the symbol
// table plus arenas rather than O(file). FuzzParse holds it to
// gate-for-gate agreement with the map-based reference parser kept in
// the package tests.
func Parse(r io.Reader, name string) (*netlist.Netlist, error) {
	return ParseStreamSized(r, name, 0)
}

// ParseStreamSized is Parse with a pre-sizing hint for the expected
// number of nets (see netlist.NewBuilderSized).
func ParseStreamSized(r io.Reader, name string, sizeHint int) (*netlist.Netlist, error) {
	p := &streamParser{
		lx: newLexer(r),
		b:  netlist.NewBuilderSized(name, sizeHint),
	}
	if err := p.parseModule(); err != nil {
		return nil, fmt.Errorf("verilog %s: %w", name, err)
	}
	return p.b.Build()
}

// lexer yields the same token stream tokenize() produces — identifiers
// and single-rune punctuation, comments stripped, invalid UTF-8 folded
// to U+FFFD — but holds only the current line.
type lexer struct {
	lines  *textio.Lines
	inBlk  bool
	eof    bool
	lineno int

	clean, spare []byte // comment-splice scratch (ping-pong)
	tokBuf       []byte // current line's token bytes
	spans        []tokSpan
	idx          int
}

type tokSpan struct {
	start, end int32
	line       int32
}

type streamTok struct {
	text []byte // valid only until the next lexer call
	line int
}

func newLexer(r io.Reader) *lexer {
	// The 64 MiB cap mirrors the reference tokenizer's Scanner buffer.
	return &lexer{lines: textio.NewLines(r, 64*1024*1024)}
}

func (l *lexer) peek() (streamTok, bool, error) {
	for l.idx >= len(l.spans) {
		if l.eof {
			return streamTok{}, false, nil
		}
		if err := l.advanceLine(); err != nil {
			return streamTok{}, false, err
		}
	}
	s := l.spans[l.idx]
	return streamTok{l.tokBuf[s.start:s.end], int(s.line)}, true, nil
}

func (l *lexer) next() (streamTok, error) {
	t, ok, err := l.peek()
	if err != nil {
		return streamTok{}, err
	}
	if !ok {
		return streamTok{}, fmt.Errorf("unexpected end of file")
	}
	l.idx++
	return t, nil
}

func (l *lexer) expect(text string) error {
	t, err := l.next()
	if err != nil {
		return err
	}
	if string(t.text) != text {
		return fmt.Errorf("line %d: expected %q, got %q", t.line, text, t.text)
	}
	return nil
}

// advanceLine loads and tokenizes the next source line.
func (l *lexer) advanceLine() error {
	line, err := l.lines.Next()
	if err == io.EOF {
		l.eof = true
		l.spans = l.spans[:0]
		l.idx = 0
		return nil
	}
	if err != nil {
		return err
	}
	l.lineno++

	// Comment handling replicates the reference per-line transformation
	// exactly, quirks included: "//" strips before inline "/*...*/"
	// splicing, and an unterminated "/*" swallows the rest of the line.
	if l.inBlk {
		if i := bytes.Index(line, []byte("*/")); i >= 0 {
			line = line[i+2:]
			l.inBlk = false
		} else {
			l.spans = l.spans[:0]
			l.idx = 0
			return nil
		}
	}
	if i := bytes.Index(line, []byte("//")); i >= 0 {
		line = line[:i]
	}
	for {
		i := bytes.Index(line, []byte("/*"))
		if i < 0 {
			break
		}
		j := bytes.Index(line[i+2:], []byte("*/"))
		if j < 0 {
			line = line[:i]
			l.inBlk = true
			break
		}
		// Splice the comment out with a separating space, into the spare
		// buffer (line may alias the other scratch buffer).
		buf := append(l.spare[:0], line[:i]...)
		buf = append(buf, ' ')
		buf = append(buf, line[i+2+j+2:]...)
		l.spare, l.clean = l.clean, buf
		line = buf
	}

	l.tokBuf = l.tokBuf[:0]
	l.spans = l.spans[:0]
	l.idx = 0
	start := 0
	flush := func() {
		if len(l.tokBuf) > start {
			l.spans = append(l.spans, tokSpan{int32(start), int32(len(l.tokBuf)), int32(l.lineno)})
		}
		start = len(l.tokBuf)
	}
	for i := 0; i < len(line); {
		r, sz := utf8.DecodeRune(line[i:])
		i += sz
		switch {
		case r == '(' || r == ')' || r == ',' || r == ';' || r == '.':
			flush()
			l.tokBuf = utf8.AppendRune(l.tokBuf, r)
			flush()
		case r == ' ' || r == '\t' || r == '\r':
			flush()
		default:
			l.tokBuf = utf8.AppendRune(l.tokBuf, r)
		}
	}
	flush()
	return nil
}

type streamParser struct {
	lx *lexer
	b  *netlist.Builder

	outputs []string // PO names in declaration order, marked at endmodule

	// Per-instance scratch, reset per instantiation.
	kind         []byte  // lowered cell kind
	arena        []byte  // copied net-name tokens (lexer slices die across lines)
	ids          []int32 // fanin scratch handed to AddGate (copied there)
	ports        [][2]int32
	qSpan, dSpan [2]int32
	hasQ, hasD   bool
	namedCount   int
}

func (p *streamParser) parseModule() error {
	if err := p.lx.expect("module"); err != nil {
		return err
	}
	if _, err := p.lx.next(); err != nil { // module name
		return err
	}
	// Port list (names only; directions come from the declarations).
	if err := p.lx.expect("("); err != nil {
		return err
	}
	for {
		t, err := p.lx.next()
		if err != nil {
			return err
		}
		if string(t.text) == ")" {
			break
		}
	}
	if err := p.lx.expect(";"); err != nil {
		return err
	}

	for {
		t, ok, err := p.lx.peek()
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("missing endmodule")
		}
		switch string(t.text) {
		case "endmodule":
			p.lx.idx++
			for _, o := range p.outputs {
				p.b.MarkOutput(o)
			}
			return nil
		case "input":
			p.lx.idx++
			if err := p.nameList(func(tok []byte) error {
				if ignoredTok(tok) {
					return nil
				}
				return p.b.DefineInput(p.b.Intern(tok))
			}); err != nil {
				return err
			}
		case "output":
			p.lx.idx++
			if err := p.nameList(func(tok []byte) error {
				p.outputs = append(p.outputs, string(tok))
				return nil
			}); err != nil {
				return err
			}
		case "wire":
			p.lx.idx++
			if err := p.nameList(nil); err != nil {
				return err
			}
		default:
			if err := p.parseInstance(); err != nil {
				return err
			}
		}
	}
}

// nameList parses "a, b, c ;", invoking fn on each name in order.
func (p *streamParser) nameList(fn func([]byte) error) error {
	for {
		t, err := p.lx.next()
		if err != nil {
			return err
		}
		switch string(t.text) {
		case ";":
			return nil
		case ",":
		case "(", ")", ".":
			return fmt.Errorf("line %d: unexpected %q in declaration", t.line, t.text)
		default:
			if fn != nil {
				if err := fn(t.text); err != nil {
					return err
				}
			}
		}
	}
}

func (p *streamParser) addPort(tok []byte) [2]int32 {
	start := int32(len(p.arena))
	p.arena = append(p.arena, tok...)
	return [2]int32{start, int32(len(p.arena))}
}

func (p *streamParser) portBytes(s [2]int32) []byte { return p.arena[s[0]:s[1]] }

// parseInstance parses one gate or flip-flop instantiation.
func (p *streamParser) parseInstance() error {
	kindTok, err := p.lx.next()
	if err != nil {
		return err
	}
	kindLine := kindTok.line
	p.kind = lowerAppend(p.kind[:0], kindTok.text)

	// Instance label (optional for primitives, common in netlists).
	t, err := p.lx.next()
	if err != nil {
		return err
	}
	if string(t.text) != "(" {
		if err := p.lx.expect("("); err != nil {
			return err
		}
	}

	p.arena = p.arena[:0]
	p.ports = p.ports[:0]
	p.hasQ, p.hasD = false, false
	p.namedCount = 0
	for {
		t, err := p.lx.next()
		if err != nil {
			return err
		}
		switch string(t.text) {
		case ")":
			if err := p.lx.expect(";"); err != nil {
				return err
			}
			return p.buildInstance(kindLine)
		case ",":
		case ".":
			port, err := p.lx.next()
			if err != nil {
				return err
			}
			isQ := upperEq(port.text, "Q")
			isD := upperEq(port.text, "D")
			if err := p.lx.expect("("); err != nil {
				return err
			}
			net, err := p.lx.next()
			if err != nil {
				return err
			}
			if err := p.lx.expect(")"); err != nil {
				return err
			}
			p.namedCount++
			if isQ { // last named .Q wins, like the reference parser's map
				p.qSpan, p.hasQ = p.addPort(net.text), true
			}
			if isD {
				p.dSpan, p.hasD = p.addPort(net.text), true
			}
		default:
			p.ports = append(p.ports, p.addPort(t.text))
		}
	}
}

func (p *streamParser) buildInstance(line int) error {
	if typ, ok := gateTypes[string(p.kind)]; ok {
		if p.namedCount > 0 {
			return fmt.Errorf("line %d: named ports on primitive %q not supported", line, p.kind)
		}
		if len(p.ports) < 2 {
			return fmt.Errorf("line %d: %q needs an output and at least one input", line, p.kind)
		}
		outID := p.b.Intern(p.portBytes(p.ports[0]))
		p.ids = p.ids[:0]
		for _, s := range p.ports[1:] {
			p.ids = append(p.ids, p.b.Intern(p.portBytes(s)))
		}
		return p.b.DefineGate(outID, typ, p.ids)
	}

	// Flip-flop (any kind containing "dff" or the Trust-Hub "fd"-style
	// cells): named .Q/.D or positional (Q, D); clock/reset ports ignored.
	if bytes.Contains(p.kind, []byte("dff")) || bytes.HasPrefix(p.kind, []byte("fd")) {
		var q, d []byte
		if p.namedCount > 0 {
			if p.hasQ {
				q = p.portBytes(p.qSpan)
			}
			if p.hasD {
				d = p.portBytes(p.dSpan)
			}
		} else {
			var nets [][2]int32
			for _, s := range p.ports {
				if !ignoredTok(p.portBytes(s)) {
					nets = append(nets, s)
				}
			}
			if len(nets) >= 2 {
				q, d = p.portBytes(nets[0]), p.portBytes(nets[1])
			}
		}
		if len(q) == 0 || len(d) == 0 {
			return fmt.Errorf("line %d: flip-flop %q needs Q and D ports", line, p.kind)
		}
		qID := p.b.Intern(q)
		return p.b.DefineDFF(qID, p.b.Intern(d))
	}
	return fmt.Errorf("line %d: unknown cell %q", line, p.kind)
}

// ignoredTok is ignoredNet over a byte token, upper-casing rune-wise
// the way strings.ToUpper would.
func ignoredTok(tok []byte) bool {
	var up [16]byte
	n := 0
	for i := 0; i < len(tok); {
		r, sz := utf8.DecodeRune(tok[i:])
		i += sz
		u := unicode.ToUpper(r)
		if u >= utf8.RuneSelf || n == len(up) {
			return false // non-ASCII or longer than any ignored name
		}
		up[n] = byte(u)
		n++
	}
	switch string(up[:n]) {
	case "CK", "CLK", "CLOCK", "GN", "SE", "SCAN_EN", "RESET", "RST", "TEST_SE":
		return true
	}
	return false
}

// upperEq reports whether strings.ToUpper(tok) equals the ASCII literal.
func upperEq(tok []byte, lit string) bool {
	j := 0
	for i := 0; i < len(tok); {
		r, sz := utf8.DecodeRune(tok[i:])
		i += sz
		if j >= len(lit) || unicode.ToUpper(r) != rune(lit[j]) {
			return false
		}
		j++
	}
	return j == len(lit)
}

// lowerAppend appends strings.ToLower(src) to dst, rune by rune.
func lowerAppend(dst, src []byte) []byte {
	for i := 0; i < len(src); {
		r, sz := utf8.DecodeRune(src[i:])
		i += sz
		dst = utf8.AppendRune(dst, unicode.ToLower(r))
	}
	return dst
}
