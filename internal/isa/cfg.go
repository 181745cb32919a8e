package isa

// This file is the shared control-flow view of one program: basic-block
// discovery over a DecodedProgram, built once per machine.Program artefact
// and used by both the compiled backend (block lowering and
// superinstruction fusion) and internal/progcheck (static
// checks and abstract interpretation). Keeping one implementation is what
// makes the checker's block structure authoritative for the compiler: a
// fusion decision can never span a boundary the checker cannot see, and the
// compiler asserts exactly that after lowering.

// BasicBlock is one maximal straight-line run of instructions.
type BasicBlock struct {
	// Start and End bound the block's pc range [Start, End).
	Start, End int32
	// Fall is the index of the fall-through successor block, or -1 when
	// control cannot fall into End (jmp or halt terminator, or End is the
	// end of the program).
	Fall int32
	// Taken is the index of the taken-branch successor block, or -1 when
	// the terminator is not a branch or its target lies outside the
	// program.
	Taken int32
	// FallsOff reports that control can leave the block past the end of
	// the program — by falling through at End == len, or by a branch
	// whose target is len (the implicit halt every interpreter applies to
	// an out-of-range pc).
	FallsOff bool
}

// Succs appends the block's successor indices (fall-through first, then the
// taken target when distinct) to dst and returns it.
func (b *BasicBlock) Succs(dst []int32) []int32 {
	if b.Fall >= 0 {
		dst = append(dst, b.Fall)
	}
	if b.Taken >= 0 && b.Taken != b.Fall {
		dst = append(dst, b.Taken)
	}
	return dst
}

// CFG is the basic-block graph of one program. Blocks are in program order
// (ascending Start), so block indices order the same way pcs do.
type CFG struct {
	Blocks []BasicBlock
	// BlockAt maps every pc to the index of its containing block.
	BlockAt []int32
}

// BuildCFG discovers basic blocks with the leader rules the compiled
// backend has always used: pc 0, every in-program branch target, the
// instruction after every branch, and the instruction after every halt are
// leaders; a block ends at a branch or halt, before the next leader, and at
// the end of the program.
func BuildCFG(dec DecodedProgram) *CFG {
	n := len(dec)
	g := &CFG{BlockAt: make([]int32, n)}
	if n == 0 {
		return g
	}
	leader := make([]bool, n)
	leader[0] = true
	for pc := range dec {
		d := &dec[pc]
		if d.IsBranch() {
			if t := int(d.Target); t >= 0 && t < n {
				leader[t] = true
			}
			if pc+1 < n {
				leader[pc+1] = true
			}
		}
		if d.Op == OpHalt && pc+1 < n {
			leader[pc+1] = true
		}
	}
	start := 0
	for pc := 0; pc < n; pc++ {
		d := &dec[pc]
		endsHere := d.IsBranch() || d.Op == OpHalt
		nextIsLeader := pc+1 < n && leader[pc+1]
		if endsHere || nextIsLeader || pc+1 == n {
			idx := int32(len(g.Blocks))
			g.Blocks = append(g.Blocks, BasicBlock{
				Start: int32(start), End: int32(pc + 1), Fall: -1, Taken: -1,
			})
			for i := start; i <= pc; i++ {
				g.BlockAt[i] = idx
			}
			start = pc + 1
		}
	}
	for i := range g.Blocks {
		b := &g.Blocks[i]
		d := &dec[b.End-1]
		switch {
		case d.Op == OpHalt:
			// Explicit halt: no successors.
		case d.IsBranch():
			if d.Op != OpJmp {
				if int(b.End) < n {
					b.Fall = g.BlockAt[b.End]
				} else {
					b.FallsOff = true
				}
			}
			if t := int(d.Target); t >= 0 && t < n {
				b.Taken = g.BlockAt[t]
			} else {
				// Target == n is the legal implicit halt; anything further
				// out is a Validate error the checker reports. Either way
				// control leaves the program.
				b.FallsOff = true
			}
		default:
			if int(b.End) < n {
				b.Fall = g.BlockAt[b.End]
			} else {
				b.FallsOff = true
			}
		}
	}
	return g
}
