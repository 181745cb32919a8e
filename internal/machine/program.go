package machine

import (
	"sync"
	"sync/atomic"

	"repro/internal/isa"
)

// Program is the immutable, shareable form of one guest program: the
// artefact every consumer of a program builds from. Load validates and
// pre-decodes it eagerly; the threaded per-op chain, the basic-block CFG
// and the fused block program for each CompileOptions are built lazily,
// each exactly once, on first use.
//
// A Program is safe for concurrent use, so one artefact can feed a
// uni-processor, an array processor, every core of a multi-processor and
// the static checker at the same time: decoding and lowering are paid once
// per program, not once per machine. The caller that owns the program owns
// its artefact; there is deliberately no global or content-keyed cache.
type Program struct {
	src isa.Program
	dec isa.DecodedProgram

	opsOnce sync.Once
	ops     []OpFn

	cfgOnce sync.Once
	cfg     *isa.CFG

	mu       sync.Mutex
	compiled []*CompiledProgram // one per distinct (normalized) CompileOptions
}

// builds counts artefact construction work process-wide: decodes by Load,
// op-chain lowerings and fused block programs. The tests that pin "decode
// once, lower once" across every consumer of one artefact read it.
var builds struct{ decodes, ops, blocks atomic.Int64 }

// Load validates and pre-decodes p into a shareable artefact. An empty
// program loads (the machines reject it with their own error); an invalid
// one returns the isa validation error.
func Load(p isa.Program) (*Program, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	builds.decodes.Add(1)
	return &Program{src: p, dec: isa.Predecode(p)}, nil
}

// Source returns the validated program the artefact was loaded from.
func (a *Program) Source() isa.Program { return a.src }

// Decoded returns the pre-decoded program. Callers must not modify it.
func (a *Program) Decoded() isa.DecodedProgram { return a.dec }

// Len returns the program length in instructions.
func (a *Program) Len() int { return len(a.dec) }

// Ops returns the threaded per-op chain, indexed by pc, lowering it on
// first use. Every caller shares the one backing array; callers must not
// modify it.
func (a *Program) Ops() []OpFn {
	a.opsOnce.Do(func() {
		builds.ops.Add(1)
		a.ops = make([]OpFn, len(a.dec))
		for pc := range a.dec {
			a.ops[pc] = compileOp(pc, &a.dec[pc])
		}
	})
	return a.ops
}

// CFG returns the basic-block graph (isa.BuildCFG), building it on first
// use. Callers must not modify it.
func (a *Program) CFG() *isa.CFG {
	a.cfgOnce.Do(func() { a.cfg = isa.BuildCFG(a.dec) })
	return a.cfg
}

// Compiled returns the fused block program for opts, building it on first
// use. Options that differ only in spelling (MemLatency 0 and 1) share one
// block program.
func (a *Program) Compiled(opts CompileOptions) *CompiledProgram {
	if opts.MemLatency == 0 {
		opts.MemLatency = 1 // default DP-DM direct-switch traversal
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, p := range a.compiled {
		if p.memLatency == opts.MemLatency && p.branchPenalty == opts.BranchPenalty {
			return p
		}
	}
	builds.blocks.Add(1)
	p := &CompiledProgram{
		ops:           a.Ops(),
		dec:           a.dec,
		n:             len(a.dec),
		blockAt:       make([]int32, len(a.dec)),
		memLatency:    opts.MemLatency,
		branchPenalty: opts.BranchPenalty,
	}
	p.buildBlocks(a.CFG())
	a.compiled = append(a.compiled, p)
	return p
}
