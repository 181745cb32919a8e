package machine_test

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/mimd"
	"repro/internal/obs"
	"repro/internal/progcheck"
	"repro/internal/simd"
	"repro/internal/uniproc"
)

// The artefact tests drive the real simulators, so they live in the
// external test package: they pin that every consumer of one loaded
// machine.Program shares its decoded ops, op chain and block programs
// instead of rebuilding them.

const artefactBank = 32

// artefactSource doubles the words of a small array in place and stores a
// running sum: loops, loads, stores and fused blocks, and no per-lane
// behaviour, so every organisation must leave the same bank behind.
var artefactSource = `
        ldi  r1, 0
        ldi  r2, 8
        ldi  r4, 0
loop:   beq  r1, r2, done
        ld   r3, [r1+0]
        add  r3, r3, r3
        st   r3, [r1+0]
        add  r4, r4, r3
        addi r1, r1, 1
        jmp  loop
done:   st   r4, [r0+16]
        halt
`

func artefactImage() []isa.Word {
	img := make([]isa.Word, 8)
	for i := range img {
		img[i] = isa.Word(3*i - 7)
	}
	return img
}

func loadArtefact(t testing.TB) *machine.Program {
	t.Helper()
	a, err := machine.Load(isa.MustAssemble(artefactSource))
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// buildDelta returns how many decodes, op lowerings and block programs
// happened since the given counter snapshot.
func buildDelta(d0, o0, b0 int64) (decodes, ops, blocks int64) {
	d, o, b := machine.Builds()
	return d - d0, o - o0, b - b0
}

func runUni(a *machine.Program, cfg uniproc.Config) ([]isa.Word, error) {
	cfg.MemWords = artefactBank
	m, err := uniproc.NewLoaded(cfg, a)
	if err != nil {
		return nil, err
	}
	defer m.Release()
	mem, _, err := m.RunWithInput(artefactImage(), 0, artefactBank)
	return mem, err
}

func runSIMD(a *machine.Program) ([][]isa.Word, error) {
	cfg, err := simd.ForSubtype(1, 2, artefactBank)
	if err != nil {
		return nil, err
	}
	m, err := simd.NewLoaded(cfg, a)
	if err != nil {
		return nil, err
	}
	defer m.Release()
	for lane := 0; lane < 2; lane++ {
		if err := m.LoadLane(lane, 0, artefactImage()); err != nil {
			return nil, err
		}
	}
	if _, err := m.Run(); err != nil {
		return nil, err
	}
	var mems [][]isa.Word
	for lane := 0; lane < 2; lane++ {
		mem, err := m.ReadLane(lane, 0, artefactBank)
		if err != nil {
			return nil, err
		}
		mems = append(mems, mem)
	}
	return mems, nil
}

func runMIMD(images []*machine.Program) ([][]isa.Word, error) {
	cfg, err := mimd.ForSubtype(1, len(images), artefactBank)
	if err != nil {
		return nil, err
	}
	m, err := mimd.NewLoaded(cfg, images)
	if err != nil {
		return nil, err
	}
	defer m.Release()
	for core := range images {
		if err := m.LoadBank(core, 0, artefactImage()); err != nil {
			return nil, err
		}
	}
	if _, err := m.Run(); err != nil {
		return nil, err
	}
	var mems [][]isa.Word
	for core := range images {
		mem, err := m.ReadBank(core, 0, artefactBank)
		if err != nil {
			return nil, err
		}
		mems = append(mems, mem)
	}
	return mems, nil
}

// sameBanks fails unless every bank equals want.
func sameBanks(t *testing.T, who string, banks [][]isa.Word, want []isa.Word) {
	t.Helper()
	for i, b := range banks {
		if !slices.Equal(b, want) {
			t.Errorf("%s bank %d = %v, uniproc says %v", who, i, b, want)
		}
	}
}

// TestArtefactSharedAcrossMachines: one artefact feeding a uni-processor,
// a 2-lane IAP-I and a 2-core IMP-I is decoded once (by Load) and lowered
// once, and every consumer executes the one op chain.
func TestArtefactSharedAcrossMachines(t *testing.T) {
	d0, o0, b0 := machine.Builds()
	a := loadArtefact(t)
	want, err := runUni(a, uniproc.Config{})
	if err != nil {
		t.Fatal(err)
	}
	lanes, err := runSIMD(a)
	if err != nil {
		t.Fatal(err)
	}
	sameBanks(t, "IAP-I lane", lanes, want)
	cores, err := runMIMD([]*machine.Program{a, a})
	if err != nil {
		t.Fatal(err)
	}
	sameBanks(t, "IMP-I core", cores, want)

	if d, o, b := buildDelta(d0, o0, b0); d != 1 || o != 1 || b != 1 {
		t.Errorf("built %d decodes, %d op chains, %d block programs; want 1 of each", d, o, b)
	}
	ops := a.Ops()
	if comp := a.Compiled(machine.CompileOptions{}); &comp.Ops()[0] != &ops[0] {
		t.Error("the block program does not share the artefact's op chain")
	}
	if again := a.Ops(); &again[0] != &ops[0] {
		t.Error("Ops returned a different backing array on the second call")
	}
	if comp := a.Compiled(machine.CompileOptions{MemLatency: 1}); comp != a.Compiled(machine.CompileOptions{}) {
		t.Error("MemLatency 0 and 1 built two block programs")
	}
	if _, _, b := buildDelta(d0, o0, b0); b != 1 {
		t.Errorf("looking up existing block programs built %d, want still 1", b)
	}
}

// TestMIMDNewSharesIdenticalImages: the isa.Program entry point loads the
// SPMD shape (one slice copied to every core) once, not once per core.
func TestMIMDNewSharesIdenticalImages(t *testing.T) {
	prog := isa.MustAssemble(artefactSource)
	cfg, err := mimd.ForSubtype(1, 4, artefactBank)
	if err != nil {
		t.Fatal(err)
	}
	d0, o0, b0 := machine.Builds()
	m, err := mimd.New(cfg, []isa.Program{prog, prog, prog, prog})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release()
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if d, o, b := buildDelta(d0, o0, b0); d != 1 || o != 1 || b != 0 {
		t.Errorf("4 identical images built %d decodes, %d op chains, %d block programs; want 1, 1, 0", d, o, b)
	}
}

// TestArtefactBlocksOnlyWhenFused: fused blocks are the uni-processor fast
// path's alone. SIMD, MIMD and traced uni-processor runs take the op chain
// and never build them; an untraced uni-processor builds one per distinct
// timing.
func TestArtefactBlocksOnlyWhenFused(t *testing.T) {
	d0, o0, b0 := machine.Builds()
	a := loadArtefact(t)
	lanes, err := runSIMD(a)
	if err != nil {
		t.Fatal(err)
	}
	cores, err := runMIMD([]*machine.Program{a, a})
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.AcquireTrace()
	defer obs.ReleaseTrace(tr)
	traced, err := runUni(a, uniproc.Config{Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	sameBanks(t, "IAP-I lane", lanes, traced)
	sameBanks(t, "IMP-I core", cores, traced)
	if _, o, b := buildDelta(d0, o0, b0); o != 1 || b != 0 {
		t.Fatalf("op-chain consumers built %d op chains and %d block programs; want 1 and 0", o, b)
	}

	for _, cfg := range []uniproc.Config{{}, {MemLatency: 1}, {BranchPenalty: 2}, {}} {
		mem, err := runUni(a, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sameBanks(t, fmt.Sprintf("fused uniproc %+v", cfg), [][]isa.Word{mem}, traced)
	}
	if _, o, b := buildDelta(d0, o0, b0); o != 1 || b != 2 {
		t.Errorf("two distinct timings built %d op chains and %d block programs; want 1 and 2", o, b)
	}
}

// TestArtefactConcurrentUse builds and runs every consumer concurrently
// from one fresh artefact, so the lazy op chain, CFG and block programs
// are first built under contention. Run it under -race.
func TestArtefactConcurrentUse(t *testing.T) {
	want, err := runUni(loadArtefact(t), uniproc.Config{Backend: machine.BackendInterp})
	if err != nil {
		t.Fatal(err)
	}
	wantReport := progcheck.Check(isa.MustAssemble(artefactSource), progcheck.Target{MemWords: artefactBank})
	a := loadArtefact(t)
	consumers := []func() error{
		func() error {
			mem, err := runUni(a, uniproc.Config{})
			return diffBank("fused uniproc", mem, want, err)
		},
		func() error {
			mem, err := runUni(a, uniproc.Config{BranchPenalty: 3})
			return diffBank("penalised uniproc", mem, want, err)
		},
		func() error {
			tr := obs.AcquireTrace()
			defer obs.ReleaseTrace(tr)
			mem, err := runUni(a, uniproc.Config{Tracer: tr})
			return diffBank("traced uniproc", mem, want, err)
		},
		func() error {
			lanes, err := runSIMD(a)
			if err != nil {
				return err
			}
			return diffBank("IAP-I lane 1", lanes[1], want, nil)
		},
		func() error {
			cores, err := runMIMD([]*machine.Program{a, a})
			if err != nil {
				return err
			}
			return diffBank("IMP-I core 1", cores[1], want, nil)
		},
		func() error {
			rep := progcheck.CheckProgram(a, progcheck.Target{MemWords: artefactBank})
			if rep.Text() != wantReport.Text() {
				return fmt.Errorf("checker on the shared artefact:\n%s\nwant:\n%s", rep.Text(), wantReport.Text())
			}
			return nil
		},
	}
	const rounds = 4
	errs := make(chan error, rounds*len(consumers))
	var wg sync.WaitGroup
	for r := 0; r < rounds; r++ {
		for _, run := range consumers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs <- run()
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

func diffBank(who string, got, want []isa.Word, err error) error {
	if err != nil {
		return fmt.Errorf("%s: %w", who, err)
	}
	if !slices.Equal(got, want) {
		return fmt.Errorf("%s bank = %v, want %v", who, got, want)
	}
	return nil
}
