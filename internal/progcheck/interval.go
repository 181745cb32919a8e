package progcheck

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/isa"
)

// This file is the abstract interpreter: an interval domain over the 16
// registers, a transfer function per op, branch-edge refinement, and a
// widening fixpoint whose thresholds are the program's own immediates — so
// counted loops stabilize at their literal bounds (`ldi r2, m` makes m a
// threshold, and the exit test's refinement then trims the counter to
// [init, m-1] inside the loop body) instead of widening to infinity.

// negInf/posInf are the unbounded interval endpoints. Arithmetic that
// could overflow int64 (where the concrete machines wrap) goes to top, so
// the marker values are never produced by saturation-by-accident.
const (
	negInf = math.MinInt64
	posInf = math.MaxInt64
)

// itv is the closed interval [lo, hi] of possible register values.
type itv struct{ lo, hi int64 }

var topItv = itv{negInf, posInf}

func (v itv) String() string {
	lo, hi := "-inf", "+inf"
	if v.lo != negInf {
		lo = fmt.Sprintf("%d", v.lo)
	}
	if v.hi != posInf {
		hi = fmt.Sprintf("%d", v.hi)
	}
	if lo == hi {
		return lo
	}
	return lo + ".." + hi
}

func (v itv) singleton() bool { return v.lo == v.hi }
func (v itv) empty() bool     { return v.lo > v.hi }

// joinII is the interval union (smallest interval containing both).
func joinII(a, b itv) itv {
	return itv{min64(a.lo, b.lo), max64(a.hi, b.hi)}
}

// meetII is the interval intersection; may be empty.
func meetII(a, b itv) itv {
	return itv{max64(a.lo, b.lo), min64(a.hi, b.hi)}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// addOv adds with overflow detection.
func addOv(a, b int64) (int64, bool) {
	s := a + b
	if (b > 0 && s < a) || (b < 0 && s > a) {
		return 0, false
	}
	return s, true
}

// mulOv multiplies with overflow detection.
func mulOv(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	p := a * b
	if p/b != a {
		return 0, false
	}
	return p, true
}

// bounded reports both endpoints are finite (safe for endpoint arithmetic).
func (v itv) bounded() bool { return v.lo != negInf && v.hi != posInf }

// addII adds two intervals; any endpoint overflow (the machines wrap)
// widens to top.
func addII(a, b itv) itv {
	if !a.bounded() || !b.bounded() {
		return topItv
	}
	lo, ok1 := addOv(a.lo, b.lo)
	hi, ok2 := addOv(a.hi, b.hi)
	if !ok1 || !ok2 {
		return topItv
	}
	return itv{lo, hi}
}

// subII subtracts b from a with the same top-on-overflow rule.
func subII(a, b itv) itv {
	if !a.bounded() || !b.bounded() {
		return topItv
	}
	lo, ok1 := addOv(a.lo, -b.hi)
	hi, ok2 := addOv(a.hi, -b.lo)
	if !ok1 || !ok2 {
		return topItv
	}
	return itv{lo, hi}
}

// mulII multiplies via the four corner products.
func mulII(a, b itv) itv {
	if !a.bounded() || !b.bounded() {
		return topItv
	}
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for _, x := range [2]int64{a.lo, a.hi} {
		for _, y := range [2]int64{b.lo, b.hi} {
			p, ok := mulOv(x, y)
			if !ok {
				return topItv
			}
			lo = min64(lo, p)
			hi = max64(hi, p)
		}
	}
	return itv{lo, hi}
}

// astate is the abstract register file.
type astate [isa.NumRegs]itv

// zeroState is the machine-entry state: every register zero-initialized.
func zeroState() astate {
	var s astate
	for i := range s {
		s[i] = itv{0, 0}
	}
	return s
}

func joinState(a, b *astate) astate {
	var r astate
	for i := range r {
		r[i] = joinII(a[i], b[i])
	}
	return r
}

// transfer applies one op's abstract semantics to the state in place.
// Ops with no interval semantics (division, bitwise, shifts — the machines
// wrap and fault in ways intervals cannot track precisely) widen their
// destination to top, which is always sound.
func transfer(d *isa.DecodedOp, s *astate, t Target) {
	switch d.Op {
	case isa.OpNop, isa.OpHalt, isa.OpSt, isa.OpSend, isa.OpSync,
		isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge, isa.OpJmp:
		// No register writes.
	case isa.OpLdi:
		s[d.Rd] = itv{d.Imm, d.Imm}
	case isa.OpMov:
		s[d.Rd] = s[d.Ra]
	case isa.OpAdd:
		s[d.Rd] = addII(s[d.Ra], s[d.Rb])
	case isa.OpSub:
		s[d.Rd] = subII(s[d.Ra], s[d.Rb])
	case isa.OpMul:
		s[d.Rd] = mulII(s[d.Ra], s[d.Rb])
	case isa.OpAddi:
		s[d.Rd] = addII(s[d.Ra], itv{d.Imm, d.Imm})
	case isa.OpMuli:
		s[d.Rd] = mulII(s[d.Ra], itv{d.Imm, d.Imm})
	case isa.OpSlt:
		s[d.Rd] = cmpItv(s[d.Ra].hi < s[d.Rb].lo, s[d.Ra].lo >= s[d.Rb].hi)
	case isa.OpSeq:
		a, b := s[d.Ra], s[d.Rb]
		s[d.Rd] = cmpItv(a.singleton() && b.singleton() && a.lo == b.lo, a.hi < b.lo || b.hi < a.lo)
	case isa.OpMin:
		s[d.Rd] = itv{min64(s[d.Ra].lo, s[d.Rb].lo), min64(s[d.Ra].hi, s[d.Rb].hi)}
	case isa.OpMax:
		s[d.Rd] = itv{max64(s[d.Ra].lo, s[d.Rb].lo), max64(s[d.Ra].hi, s[d.Rb].hi)}
	case isa.OpLane:
		s[d.Rd] = itv{0, int64(t.Procs) - 1}
	case isa.OpLd, isa.OpRecv,
		isa.OpDiv, isa.OpRem, isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpShl, isa.OpShr:
		s[d.Rd] = topItv
	default:
		if d.Op.WritesRd() {
			s[d.Rd] = topItv
		}
	}
}

// cmpItv builds the {0,1} interval of a comparison: [1,1] when provably
// true, [0,0] when provably false, [0,1] otherwise.
func cmpItv(provablyTrue, provablyFalse bool) itv {
	switch {
	case provablyTrue:
		return itv{1, 1}
	case provablyFalse:
		return itv{0, 0}
	default:
		return itv{0, 1}
	}
}

// refine narrows the state along one edge of a conditional branch
// `op ra, rb`: taken means the condition held. It reports false when the
// edge is infeasible under the current state (empty refinement).
func refine(op isa.Op, taken bool, s *astate, ra, rb uint8) bool {
	a, b := s[ra], s[rb]
	eq := (op == isa.OpBeq && taken) || (op == isa.OpBne && !taken)
	ne := (op == isa.OpBeq && !taken) || (op == isa.OpBne && taken)
	lt := (op == isa.OpBlt && taken) || (op == isa.OpBge && !taken)
	ge := (op == isa.OpBge && taken) || (op == isa.OpBlt && !taken)
	switch {
	case eq:
		m := meetII(a, b)
		if m.empty() {
			return false
		}
		s[ra], s[rb] = m, m
	case ne:
		a = trimNE(a, b)
		b = trimNE(b, a)
		if a.empty() || b.empty() {
			return false
		}
		s[ra], s[rb] = a, b
	case lt:
		// a < b: a.hi <= b.hi-1, b.lo >= a.lo+1.
		if b.hi != posInf {
			a.hi = min64(a.hi, b.hi-1)
		}
		if a.lo != negInf {
			b.lo = max64(b.lo, a.lo+1)
		}
		if a.empty() || b.empty() {
			return false
		}
		s[ra], s[rb] = a, b
	case ge:
		// a >= b: a.lo >= b.lo, b.hi <= a.hi.
		a.lo = max64(a.lo, b.lo)
		b.hi = min64(b.hi, a.hi)
		if a.empty() || b.empty() {
			return false
		}
		s[ra], s[rb] = a, b
	}
	return true
}

// trimNE removes a singleton other-operand from a's endpoints (the only
// sound interval refinement for "not equal").
func trimNE(a, other itv) itv {
	if !other.singleton() {
		return a
	}
	v := other.lo
	if a.singleton() && a.lo == v {
		return itv{1, 0} // empty
	}
	if a.lo == v {
		a.lo = v + 1
	}
	if a.hi == v {
		a.hi = v - 1
	}
	return a
}

// absResult carries the fixpoint: the joined abstract state at each block
// entry, and which blocks the analysis actually reached (edge feasibility
// can prune blocks plain reachability keeps).
type absResult struct {
	in      []astate
	visited []bool
}

// edgeOut computes the post-state along one edge of block b: the transfer
// of the whole block followed by the branch refinement for that edge. It
// reports false when the edge is infeasible.
func (st *absResult) edgeOut(dec isa.DecodedProgram, g *isa.CFG, b int, taken bool, t Target) (astate, bool) {
	s := st.in[b]
	blk := &g.Blocks[b]
	for pc := blk.Start; pc < blk.End; pc++ {
		transfer(&dec[pc], &s, t)
	}
	d := &dec[blk.End-1]
	if d.IsBranch() && d.Op != isa.OpJmp {
		if !refine(d.Op, taken, &s, d.Ra, d.Rb) {
			return s, false
		}
	}
	return s, true
}

// analysis fixpoint tuning: joins at a block are exact for the first
// stableJoins changes, threshold-widened after, and fully widened once the
// pass counter passes hardPass (guaranteeing termination).
const (
	stableJoins = 2
	softPasses  = 60
	maxPasses   = 4000
)

// analyze runs the interval fixpoint over the reachable CFG.
func analyze(dec isa.DecodedProgram, g *isa.CFG, reach []bool, t Target) *absResult {
	nb := len(g.Blocks)
	st := &absResult{in: make([]astate, nb), visited: make([]bool, nb)}
	if nb == 0 {
		return st
	}
	st.in[0] = zeroState()
	st.visited[0] = true
	thresholds := collectThresholds(dec, t)
	joins := make([]int, nb)

	propagate := func(to int32, s astate, hard bool) bool {
		ti := int(to)
		if !st.visited[ti] {
			st.in[ti] = s
			st.visited[ti] = true
			return true
		}
		joined := joinState(&st.in[ti], &s)
		if joined == st.in[ti] {
			return false
		}
		joins[ti]++
		if joins[ti] > stableJoins {
			joined = widenState(&st.in[ti], &joined, thresholds, hard)
		}
		if joined == st.in[ti] {
			return false
		}
		st.in[ti] = joined
		return true
	}

	for pass := 0; pass < maxPasses; pass++ {
		hard := pass >= softPasses
		changed := false
		for b := 0; b < nb; b++ {
			if !reach[b] || !st.visited[b] {
				continue
			}
			blk := &g.Blocks[b]
			if blk.Fall >= 0 {
				if s, ok := st.edgeOut(dec, g, b, false, t); ok {
					if propagate(blk.Fall, s, hard) {
						changed = true
					}
				}
			}
			if blk.Taken >= 0 {
				if s, ok := st.edgeOut(dec, g, b, true, t); ok {
					if propagate(blk.Taken, s, hard) {
						changed = true
					}
				}
			}
		}
		if !changed {
			return st
		}
	}
	// The cap is a backstop for a convergence bug, not a normal exit: give
	// every visited block the sound top state, then settle visited itself.
	for b := 0; b < nb; b++ {
		if st.visited[b] {
			for r := range st.in[b] {
				st.in[b][r] = topItv
			}
		}
	}
	settleTop(st, g, reach)
	return st
}

// settleTop closes visited under successor edges after the backstop widened
// every visited block to top. Under top states no edge can be refined to
// infeasible, so blocks that looked unreachable under the pre-backstop
// states must rejoin the analysis — bounds checks and the WCET path only
// cover visited blocks, and leaving them out would under-approximate.
func settleTop(st *absResult, g *isa.CFG, reach []bool) {
	for changed := true; changed; {
		changed = false
		for b := range g.Blocks {
			if !reach[b] || !st.visited[b] {
				continue
			}
			blk := &g.Blocks[b]
			var succs [2]int32
			for _, to := range blk.Succs(succs[:0]) {
				if !st.visited[to] {
					st.visited[to] = true
					for r := range st.in[to] {
						st.in[to][r] = topItv
					}
					changed = true
				}
			}
		}
	}
}

// widenState accelerates a growing join: endpoints that moved are pushed
// to the next program threshold (hard: straight to infinity).
func widenState(old, next *astate, thresholds []int64, hard bool) astate {
	var r astate
	for i := range r {
		v := next[i]
		if v.lo < old[i].lo {
			if hard {
				v.lo = negInf
			} else {
				v.lo = thresholdLE(thresholds, v.lo)
			}
		}
		if v.hi > old[i].hi {
			if hard {
				v.hi = posInf
			} else {
				v.hi = thresholdGE(thresholds, v.hi)
			}
		}
		r[i] = v
	}
	return r
}

// collectThresholds gathers the widening thresholds: every immediate in
// the program (±1, so strict bounds land exactly), the memory size, and
// the processor count.
func collectThresholds(dec isa.DecodedProgram, t Target) []int64 {
	var ts []int64
	add := func(v int64) {
		if v != negInf && v != posInf {
			ts = append(ts, v)
		}
	}
	add(0)
	add(1)
	if t.MemWords > 0 {
		add(int64(t.MemWords))
		add(int64(t.MemWords) - 1)
	}
	add(int64(t.Procs))
	add(int64(t.Procs) - 1)
	for pc := range dec {
		d := &dec[pc]
		if d.Op.UsesImm() {
			add(d.Imm)
			if d.Imm > negInf+1 {
				add(d.Imm - 1)
			}
			if d.Imm < posInf-1 {
				add(d.Imm + 1)
			}
		}
	}
	slices.Sort(ts)
	// Dedupe in place.
	out := ts[:0]
	for i, v := range ts {
		if i == 0 || v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

// thresholdGE returns the smallest threshold >= v, or posInf.
func thresholdGE(ts []int64, v int64) int64 {
	lo, hi := 0, len(ts)
	for lo < hi {
		mid := (lo + hi) / 2
		if ts[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(ts) {
		return ts[lo]
	}
	return posInf
}

// thresholdLE returns the largest threshold <= v, or negInf.
func thresholdLE(ts []int64, v int64) int64 {
	lo, hi := 0, len(ts)
	for lo < hi {
		mid := (lo + hi) / 2
		if ts[mid] <= v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo > 0 {
		return ts[lo-1]
	}
	return negInf
}
