package trust

import (
	"bufio"
	"fmt"
	"io"
	"strconv"

	"superpose/internal/netlist"
	"superpose/internal/stats"
)

// LargeParams sizes a synthetic SoC-partition-scale host circuit for the
// capacity tier (10⁵–10⁷ gates). It mirrors Params but drives the
// streaming generator: gate names are pure functions of (rank, ordinal),
// so the netlist can be emitted as .bench text without ever
// materializing rank name lists or maps. Generation scratch is
// O(levels), independent of gate count.
type LargeParams struct {
	Name   string
	PIs    int
	POs    int
	FFs    int
	Comb   int // combinational rank gates (excluding the FF D-pin buffers)
	Levels int
	Seed   uint64
}

// TotalGates returns the total gate/net count of the generated netlist:
// sources, rank gates and the per-FF D-pin buffers.
func (p LargeParams) TotalGates() int { return p.PIs + 2*p.FFs + p.Comb }

// SizedLargeParams derives realistic-shape parameters for a target total
// gate count: ~7% flip-flops (the ISCAS-89/Trust-Hub ratio), a few
// hundred ports, and logic depth growing with size the way synthesized
// partitions do (≈12 levels at 10⁴ gates, +4 per decade).
func SizedLargeParams(gates int, seed uint64) LargeParams {
	if gates < 1000 {
		gates = 1000
	}
	ffs := gates * 7 / 100
	pis := 32 + gates/2000
	if pis > 512 {
		pis = 512
	}
	pos := 32 + gates/4000
	if pos > 1024 {
		pos = 1024
	}
	levels := 12
	for g := gates; g > 10000; g /= 10 {
		levels += 4
	}
	return LargeParams{
		Name:   fmt.Sprintf("synth%d", gates),
		PIs:    pis,
		POs:    pos,
		FFs:    ffs,
		Comb:   gates - pis - 2*ffs,
		Levels: levels,
		Seed:   seed,
	}
}

func (p LargeParams) validate() error {
	if p.PIs < 1 || p.FFs < 1 || p.POs < 1 {
		return fmt.Errorf("trust: %q: need at least one PI, PO and FF", p.Name)
	}
	if p.Levels < 2 {
		return fmt.Errorf("trust: %q: need at least 2 levels", p.Name)
	}
	if p.Comb < p.Levels {
		return fmt.Errorf("trust: %q: %d gates cannot fill %d levels", p.Name, p.Comb, p.Levels)
	}
	return nil
}

// emitLarge drives one deterministic generation pass, writing .bench
// lines in stream order: inputs, flip-flops, rank gates, D-pin buffers,
// then outputs.
func emitLarge(p LargeParams, em benchWriter) error {
	if err := p.validate(); err != nil {
		return err
	}
	rng := stats.NewRNG(p.Seed)

	// Rank sizes and cumulative gate-number offsets: spread Comb gates
	// evenly, remainder on the earliest ranks (wider near the inputs).
	rankSize := make([]int, p.Levels)
	for i := range rankSize {
		rankSize[i] = p.Comb / p.Levels
	}
	for i := 0; i < p.Comb%p.Levels; i++ {
		rankSize[i]++
	}
	off := make([]int, p.Levels+1)
	for i, sz := range rankSize {
		off[i+1] = off[i] + sz
	}

	var nb nameScratch
	for i := 0; i < p.PIs; i++ {
		if err := em.input(nb.pi(i)); err != nil {
			return err
		}
	}
	for i := 0; i < p.FFs; i++ {
		// q and d go through distinct scratch buffers (def and slot 0).
		if err := em.dff(nb.ff(i), nb.faninD(0, i)); err != nil {
			return err
		}
	}

	// Rank gates. A fanin is identified by a compact key — sources first,
	// then global gate ordinals — so duplicate suppression needs no map.
	nSources := p.PIs + p.FFs
	var keys [4]int
	var fanins [4][]byte
	faninName := func(slot, key int) []byte {
		switch {
		case key < p.PIs:
			return nb.faninPI(slot, key)
		case key < nSources:
			return nb.faninFF(slot, key-p.PIs)
		default:
			gn := key - nSources
			lvl := rankOf(off, gn)
			return nb.faninGate(slot, lvl, gn)
		}
	}
	pick := func(lvl int) int {
		roll := rng.Intn(100)
		switch {
		case lvl == 0 || roll < 15+60/(lvl+1):
			return rng.Intn(nSources)
		case lvl >= 2 && roll >= 85 && rankSize[lvl-2] > 0:
			return nSources + off[lvl-2] + rng.Intn(rankSize[lvl-2])
		default:
			if rankSize[lvl-1] == 0 {
				return rng.Intn(nSources)
			}
			return nSources + off[lvl-1] + rng.Intn(rankSize[lvl-1])
		}
	}
	gateNum := 0
	for lvl := 0; lvl < p.Levels; lvl++ {
		for g := 0; g < rankSize[lvl]; g++ {
			m := pickMix(rng)
			nin := m.fanin
			if nin == 0 {
				nin = 2 + rng.Intn(3) // 2..4
			}
			cnt := 0
			for cnt < nin {
				k := pick(lvl)
				if containsKey(keys[:cnt], k) {
					// Duplicates are legal but uninteresting; retry once,
					// then skip to guarantee termination.
					k = pick(lvl)
					if containsKey(keys[:cnt], k) {
						continue
					}
				}
				keys[cnt] = k
				fanins[cnt] = faninName(cnt, k)
				cnt++
			}
			if err := em.gate(nb.gate(lvl, gateNum), m.typ, fanins[:cnt]); err != nil {
				return err
			}
			gateNum++
		}
	}

	// D pins and primary outputs draw from the last third of the ranks,
	// which in gate-ordinal space is simply [off[start], Comb).
	lateStart := off[(2*p.Levels)/3]
	lateName := func(slot int) []byte {
		gn := lateStart + rng.Intn(p.Comb-lateStart)
		return nb.faninGate(slot, rankOf(off, gn), gn)
	}
	for i := 0; i < p.FFs; i++ {
		fanins[0] = lateName(0)
		if err := em.gate(nb.d(i), netlist.Buf, fanins[:1]); err != nil {
			return err
		}
	}
	for i := 0; i < p.POs; i++ {
		if err := em.output(lateName(0)); err != nil {
			return err
		}
	}
	return nil
}

// rankOf finds the rank whose half-open ordinal range contains gn.
func rankOf(off []int, gn int) int {
	lo, hi := 0, len(off)-1
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if off[mid] <= gn {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

func containsKey(keys []int, k int) bool {
	for _, have := range keys {
		if have == k {
			return true
		}
	}
	return false
}

// nameScratch formats the deterministic net names (pi/ff/d/n{lvl}_{gn})
// into reusable buffers: one for the defined net, one per fanin slot.
type nameScratch struct {
	def  []byte
	slot [4][]byte
}

func (s *nameScratch) pi(i int) []byte {
	s.def = strconv.AppendInt(append(s.def[:0], 'p', 'i'), int64(i), 10)
	return s.def
}

func (s *nameScratch) ff(i int) []byte {
	s.def = strconv.AppendInt(append(s.def[:0], 'f', 'f'), int64(i), 10)
	return s.def
}

func (s *nameScratch) d(i int) []byte {
	s.def = strconv.AppendInt(append(s.def[:0], 'd'), int64(i), 10)
	return s.def
}

func (s *nameScratch) gate(lvl, gn int) []byte {
	s.def = appendGateName(s.def[:0], lvl, gn)
	return s.def
}

func (s *nameScratch) faninPI(slot, i int) []byte {
	s.slot[slot] = strconv.AppendInt(append(s.slot[slot][:0], 'p', 'i'), int64(i), 10)
	return s.slot[slot]
}

func (s *nameScratch) faninFF(slot, i int) []byte {
	s.slot[slot] = strconv.AppendInt(append(s.slot[slot][:0], 'f', 'f'), int64(i), 10)
	return s.slot[slot]
}

func (s *nameScratch) faninD(slot, i int) []byte {
	s.slot[slot] = strconv.AppendInt(append(s.slot[slot][:0], 'd'), int64(i), 10)
	return s.slot[slot]
}

func (s *nameScratch) faninGate(slot, lvl, gn int) []byte {
	s.slot[slot] = appendGateName(s.slot[slot][:0], lvl, gn)
	return s.slot[slot]
}

func appendGateName(dst []byte, lvl, gn int) []byte {
	dst = append(dst, 'n')
	dst = strconv.AppendInt(dst, int64(lvl), 10)
	dst = append(dst, '_')
	return strconv.AppendInt(dst, int64(gn), 10)
}

// benchWriter streams .bench lines; memory use is the bufio window.
// Name slices are only read for the duration of a call.
type benchWriter struct {
	w *bufio.Writer
}

func (e benchWriter) input(name []byte) error {
	e.w.WriteString("INPUT(")
	e.w.Write(name)
	_, err := e.w.WriteString(")\n")
	return err
}

func (e benchWriter) output(name []byte) error {
	e.w.WriteString("OUTPUT(")
	e.w.Write(name)
	_, err := e.w.WriteString(")\n")
	return err
}

func (e benchWriter) dff(q, d []byte) error {
	e.w.Write(q)
	e.w.WriteString(" = DFF(")
	e.w.Write(d)
	_, err := e.w.WriteString(")\n")
	return err
}

func (e benchWriter) gate(name []byte, typ netlist.GateType, fanins [][]byte) error {
	e.w.Write(name)
	e.w.WriteString(" = ")
	e.w.WriteString(typ.String())
	e.w.WriteByte('(')
	for i, f := range fanins {
		if i > 0 {
			e.w.WriteString(", ")
		}
		e.w.Write(f)
	}
	_, err := e.w.WriteString(")\n")
	return err
}

// EmitLarge streams the generated netlist as .bench text to w. Memory
// use is O(levels): gate names are derived, never stored, so a 10⁷-gate
// netlist emits through a fixed-size buffer.
func EmitLarge(w io.Writer, p LargeParams) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	fmt.Fprintf(bw, "# %s: %d gates (%d comb), %d PI, %d PO, %d FF, %d levels, seed %#x\n",
		p.Name, p.TotalGates(), p.Comb+p.FFs, p.PIs, p.POs, p.FFs, p.Levels, p.Seed)
	if err := emitLarge(p, benchWriter{w: bw}); err != nil {
		return err
	}
	return bw.Flush()
}
