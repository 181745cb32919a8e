// Package progcheck statically verifies guest ISA programs before they
// reach a simulator. It builds the same basic-block CFG the compiled
// backend lowers (isa.BuildCFG), then runs a pluggable set of checks:
// structural validity (encodings, branch targets), unreachable code,
// control falling off the end of the program, register def-before-use,
// memory bounds via abstract interpretation over an interval domain,
// communication-shape legality for the target machine class, and a
// worst-case cycle/step budget with loop trip-count inference — "unbounded"
// is an explicit verdict, not a timeout.
//
// The checker is the front line for user-submitted programs (ROADMAP item
// 1): /v1/simulate rejects programs with structured findings instead of
// letting them fault a simulator at runtime, and the conformance random-
// program generator differentially validates the checker over thousands of
// seeds (its output must always be clean).
package progcheck

import (
	"fmt"
	"sort"

	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/report"
)

// Target describes the machine shape a program is checked against. The
// zero value means: memory size unknown (bounds checks that need a size
// are skipped), one processor, no DP-DP network, no barrier, default
// uniproc timing, and the default run budget.
type Target struct {
	// MemWords is the data-memory size in words visible to the program
	// (per bank for SPMD programs); 0 means unknown.
	MemWords int
	// Procs is the number of processors or lanes the program runs on;
	// 0 means 1 (uni-processor).
	Procs int
	// HasNetwork reports whether the target has a DP-DP network, making
	// SEND/RECV legal; HasBarrier likewise for SYNC.
	HasNetwork bool
	HasBarrier bool
	// MemLatency and BranchPenalty mirror the simulator timing knobs the
	// cycle bound is computed under; MemLatency 0 means the default
	// single-cycle DP-DM traversal.
	MemLatency    int64
	BranchPenalty int64
	// MaxCycles is the cycle budget the worst-case bound is compared
	// against; 0 means machine.DefaultMaxCycles.
	MaxCycles int64
}

// withDefaults resolves the zero-value conventions.
func (t Target) withDefaults() Target {
	if t.MemLatency == 0 {
		t.MemLatency = 1
	}
	if t.Procs <= 0 {
		t.Procs = 1
	}
	if t.MaxCycles <= 0 {
		t.MaxCycles = machine.DefaultMaxCycles
	}
	return t
}

// Check names, one per analysis; Finding.Check holds one of these.
const (
	CheckEncoding    = "encoding"
	CheckBranch      = "branch-target"
	CheckFallOff     = "fallthrough"
	CheckUnreachable = "unreachable"
	CheckDefUse      = "def-before-use"
	CheckBounds      = "memory-bounds"
	CheckComm        = "comm-shape"
	CheckBudget      = "budget"
)

// Finding is one checker diagnosis, anchored to an op index and its basic
// block (-1 for program-level findings).
type Finding struct {
	// Check names the analysis that produced the finding.
	Check string `json:"check"`
	// Severity grades it; see report.Severity.
	Severity report.Severity `json:"severity"`
	// PC is the op index, -1 for program-level findings.
	PC int `json:"pc"`
	// Block is the basic-block index containing PC, -1 when not tied to
	// a block.
	Block int `json:"block"`
	// Message is the human-readable detail.
	Message string `json:"message"`
}

// Budget is the worst-case execution verdict.
type Budget struct {
	// Bounded reports whether every loop has an inferable trip bound; a
	// false value is an explicit verdict, carried with Reason.
	Bounded bool `json:"bounded"`
	// MaxCycles and MaxInstructions bound any execution when Bounded.
	MaxCycles       int64 `json:"max_cycles,omitempty"`
	MaxInstructions int64 `json:"max_instructions,omitempty"`
	// CommStalls reports the program blocks on RECV/SYNC, whose stall
	// cycles the bound excludes (they depend on peer timing).
	CommStalls bool `json:"comm_stalls,omitempty"`
	// Reason explains an unbounded verdict.
	Reason string `json:"reason,omitempty"`
}

// Report is the result of checking one program against one target.
type Report struct {
	Findings []Finding `json:"findings"`
	Budget   Budget    `json:"budget"`
	// Instructions, Blocks and Loops are CFG statistics.
	Instructions int `json:"instructions"`
	Blocks       int `json:"blocks"`
	Loops        int `json:"loops"`
}

// Clean reports whether the program has no findings at or above min.
func (r *Report) Clean(min report.Severity) bool {
	for _, f := range r.Findings {
		if f.Severity >= min {
			return false
		}
	}
	return true
}

// MaxSeverity returns the highest finding severity, or SevInfo-1 (-1 as
// int) when there are no findings.
func (r *Report) MaxSeverity() report.Severity {
	max := report.Severity(-1)
	for _, f := range r.Findings {
		if f.Severity > max {
			max = f.Severity
		}
	}
	return max
}

// add records one finding.
func (r *Report) add(check string, sev report.Severity, pc, block int, msg string) {
	r.Findings = append(r.Findings, Finding{Check: check, Severity: sev, PC: pc, Block: block, Message: msg})
}

// finish sorts findings into the deterministic report order: by op index,
// then check name, then severity, then message.
func (r *Report) finish() {
	sort.Slice(r.Findings, func(i, j int) bool {
		a, b := r.Findings[i], r.Findings[j]
		if a.PC != b.PC {
			return a.PC < b.PC
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		if a.Severity != b.Severity {
			return a.Severity < b.Severity
		}
		return a.Message < b.Message
	})
}

// Check verifies one program against one target and returns the report.
// It never panics and is deterministic: the same program and target always
// produce the identical report, byte-for-byte in JSON. A program
// machine.Load accepts is checked through its artefact, exactly as
// CheckProgram would; one Load rejects still gets its structural findings,
// and — when every op decodes — the deeper analyses too.
func Check(p isa.Program, t Target) *Report {
	a, _ := machine.Load(p) // nil when p is invalid; check decodes it then
	return check(p, a, t)
}

// CheckProgram is Check on a loaded artefact: the analyses run on the
// artefact's decoded ops and CFG, so a caller that also runs the program
// decodes it, and builds its CFG, once for the checker and every machine.
func CheckProgram(a *machine.Program, t Target) *Report {
	return check(a.Source(), a, t)
}

// check runs the structural scan over p and then the deeper analyses over
// a's decoded ops and CFG. a is nil when Load rejected p; p is then decoded
// here, which its structural findings have already shown to be possible.
func check(p isa.Program, a *machine.Program, t Target) *Report {
	t = t.withDefaults()
	r := &Report{Instructions: len(p)}
	decodable := checkStructure(p, t, r)
	if !decodable {
		// Undefined opcodes or register fields: the deeper analyses have
		// no semantics to interpret, so stop at the structural findings.
		r.Budget = Budget{Bounded: false, Reason: "program has invalid encodings"}
		r.finish()
		return r
	}
	if len(p) == 0 {
		r.Budget = Budget{Bounded: true}
		r.finish()
		return r
	}
	var dec isa.DecodedProgram
	var g *isa.CFG
	if a != nil {
		dec, g = a.Decoded(), a.CFG()
	} else {
		dec = isa.Predecode(p)
		g = isa.BuildCFG(dec)
	}
	r.Blocks = len(g.Blocks)
	reach := reachableBlocks(g)
	checkUnreachable(g, reach, r)
	checkFallOff(dec, g, reach, r)
	checkDefUse(dec, g, reach, r)
	st := analyze(dec, g, reach, t)
	checkBounds(dec, g, reach, st, t, r)
	checkPeers(dec, g, reach, st, t, r)
	computeBudget(dec, g, reach, st, t, r)
	r.finish()
	return r
}

// checkStructure validates encodings, branch-target ranges, and the
// communication shape against the target. It returns false when the
// program has ops the simulators have no semantics for (invalid opcode or
// register field), which gates the deeper analyses.
func checkStructure(p isa.Program, t Target, r *Report) bool {
	decodable := true
	n := len(p)
	for pc, ins := range p {
		if err := ins.Validate(); err != nil {
			r.add(CheckEncoding, report.SevError, pc, -1, err.Error())
			decodable = false
			continue
		}
		if ins.Op.IsBranch() {
			target := pc + 1 + int(ins.Imm)
			switch {
			case target < 0 || target > n:
				r.add(CheckBranch, report.SevError, pc, -1,
					fmt.Sprintf("branch target %d outside program of length %d", target, n))
			case target == n:
				r.add(CheckBranch, report.SevInfo, pc, -1,
					fmt.Sprintf("branch target %d is the program end (implicit halt)", target))
			}
		}
		if ins.Op.IsComm() && !t.HasNetwork {
			r.add(CheckComm, report.SevError, pc, -1,
				fmt.Sprintf("%s needs a DP-DP network the target class does not have", ins.Op))
		}
		if ins.Op == isa.OpSync && !t.HasBarrier {
			r.add(CheckComm, report.SevError, pc, -1,
				"sync needs a barrier the target class does not have")
		}
	}
	return decodable
}

// reachableBlocks marks every block reachable from the entry block.
func reachableBlocks(g *isa.CFG) []bool {
	reach := make([]bool, len(g.Blocks))
	if len(g.Blocks) == 0 {
		return reach
	}
	stack := []int32{0}
	reach[0] = true
	var succs [2]int32
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range g.Blocks[b].Succs(succs[:0]) {
			if !reach[s] {
				reach[s] = true
				stack = append(stack, s)
			}
		}
	}
	return reach
}

// checkUnreachable reports blocks no path from the entry reaches.
func checkUnreachable(g *isa.CFG, reach []bool, r *Report) {
	for i := range g.Blocks {
		if !reach[i] {
			b := &g.Blocks[i]
			r.add(CheckUnreachable, report.SevInfo, int(b.Start), i,
				fmt.Sprintf("unreachable code (%d ops)", b.End-b.Start))
		}
	}
}

// checkFallOff reports reachable blocks from which control can run off the
// end of the program without an explicit halt. A branch whose target is
// exactly the program length is the legal implicit halt and already
// carries an Info finding from checkStructure.
func checkFallOff(dec isa.DecodedProgram, g *isa.CFG, reach []bool, r *Report) {
	n := int32(len(dec))
	for i := range g.Blocks {
		b := &g.Blocks[i]
		if !reach[i] || !b.FallsOff {
			continue
		}
		d := &dec[b.End-1]
		pc := int(b.End - 1)
		switch {
		case d.IsBranch():
			// A taken edge to n is the implicit halt (Info elsewhere);
			// only flag the fall-through running off the end.
			if d.Op != isa.OpJmp && b.End == n && b.Fall < 0 {
				r.add(CheckFallOff, report.SevWarn, pc, i,
					"conditional branch at the last instruction: the not-taken path falls off the end of the program")
			}
		default:
			r.add(CheckFallOff, report.SevWarn, pc, i,
				"control falls off the end of the program (missing halt; the machines halt implicitly)")
		}
	}
}

// defUseMsg is the def-before-use finding text per register, formatted
// once: generated and hand-written programs alike lean on zero-initialized
// registers, so this is the checker's most frequent finding.
var defUseMsg = func() (msgs [isa.NumRegs]string) {
	for r := range msgs {
		msgs[r] = fmt.Sprintf("reads r%d before any write reaches it (relies on zero-initialized registers)", r)
	}
	return msgs
}()

// checkDefUse runs a must-be-defined forward dataflow over registers and
// reports reads that no write dominates. The machines zero-initialize
// registers, so this is advisory: it flags reliance on implicit zeros.
func checkDefUse(dec isa.DecodedProgram, g *isa.CFG, reach []bool, r *Report) {
	nb := len(g.Blocks)
	// in[b] is the definitely-written register mask at block entry; the
	// meet over predecessors is AND, so unvisited preds start at all-ones.
	in := make([]uint16, nb)
	for i := range in {
		in[i] = 0xFFFF
	}
	in[0] = 0
	// Predecessor-free reachable blocks other than the entry cannot exist
	// (reachability implies a pred path), so the fixpoint below is sound.
	out := func(b int) uint16 {
		mask := in[b]
		blk := &g.Blocks[b]
		for pc := blk.Start; pc < blk.End; pc++ {
			if dec[pc].Op.WritesRd() {
				mask |= 1 << dec[pc].Rd
			}
		}
		return mask
	}
	for changed := true; changed; {
		changed = false
		for b := 0; b < nb; b++ {
			if !reach[b] {
				continue
			}
			m := out(b)
			blk := &g.Blocks[b]
			var succs [2]int32
			for _, s := range blk.Succs(succs[:0]) {
				if nm := in[s] & m; nm != in[s] {
					in[s] = nm
					changed = true
				}
			}
		}
	}
	for b := 0; b < nb; b++ {
		if !reach[b] {
			continue
		}
		mask := in[b]
		blk := &g.Blocks[b]
		for pc := blk.Start; pc < blk.End; pc++ {
			d := &dec[pc]
			if d.Op.ReadsRa() && mask&(1<<d.Ra) == 0 {
				r.add(CheckDefUse, report.SevInfo, int(pc), b, defUseMsg[d.Ra])
			}
			if d.Op.ReadsRb() && mask&(1<<d.Rb) == 0 {
				r.add(CheckDefUse, report.SevInfo, int(pc), b, defUseMsg[d.Rb])
			}
			if d.Op.WritesRd() {
				mask |= 1 << d.Rd
			}
		}
	}
}

// checkBounds walks every reachable memory op with the interval results
// and grades its address range against the target memory size.
func checkBounds(dec isa.DecodedProgram, g *isa.CFG, reach []bool, st *absResult, t Target, r *Report) {
	if t.MemWords <= 0 {
		return
	}
	mem := int64(t.MemWords)
	for b := range g.Blocks {
		if !reach[b] || !st.visited[b] {
			continue
		}
		s := st.in[b]
		blk := &g.Blocks[b]
		for pc := blk.Start; pc < blk.End; pc++ {
			d := &dec[pc]
			if d.Op == isa.OpLd || d.Op == isa.OpSt {
				addr := addII(s[d.Ra], itv{d.Imm, d.Imm})
				switch {
				case addr.hi < 0 || addr.lo >= mem:
					r.add(CheckBounds, report.SevError, int(pc), b,
						fmt.Sprintf("address r%d%+d is provably out of bounds: [%s] vs memory 0..%d", d.Ra, d.Imm, addr, mem-1))
				case addr.lo < 0 || addr.hi >= mem:
					r.add(CheckBounds, report.SevWarn, int(pc), b,
						fmt.Sprintf("address r%d%+d may be out of bounds: [%s] vs memory 0..%d", d.Ra, d.Imm, addr, mem-1))
				}
			}
			transfer(d, &s, t)
		}
	}
}

// checkPeers grades SEND/RECV peer indices against the processor count;
// only provably-out-of-range peers are errors (possible ranges are left to
// the runtime, which faults deterministically).
func checkPeers(dec isa.DecodedProgram, g *isa.CFG, reach []bool, st *absResult, t Target, r *Report) {
	if !t.HasNetwork || t.Procs <= 0 {
		return
	}
	procs := int64(t.Procs)
	for b := range g.Blocks {
		if !reach[b] || !st.visited[b] {
			continue
		}
		s := st.in[b]
		blk := &g.Blocks[b]
		for pc := blk.Start; pc < blk.End; pc++ {
			d := &dec[pc]
			if d.Op == isa.OpSend || d.Op == isa.OpRecv {
				peer := s[d.Rb]
				if peer.hi < 0 || peer.lo >= procs {
					r.add(CheckComm, report.SevError, int(pc), b,
						fmt.Sprintf("%s peer index in r%d is provably out of range: [%s] vs processors 0..%d", d.Op, d.Rb, peer, procs-1))
				}
			}
			transfer(d, &s, t)
		}
	}
}
