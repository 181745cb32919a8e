package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/modelzoo"
	"repro/internal/obs"
	"repro/internal/progcheck"
	"repro/internal/report"
	"repro/internal/taxonomy"
	"repro/internal/workload"
)

// span is one timed call of the traced run. Spans of one replayed item
// share Item; a root span has Parent -1.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Item    int     `json:"item"`
	Name    string  `json:"name"`
	Layer   string  `json:"layer"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// recorder keeps the traced run's spans in memory until the dump.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) now() float64 { return float64(time.Since(r.t0).Nanoseconds()) / 1e3 }

func (r *recorder) start(name, layer string, parent, item int) int {
	r.spans = append(r.spans, span{ID: len(r.spans), Parent: parent, Item: item, Name: name, Layer: layer, StartUS: r.now()})
	return len(r.spans) - 1
}

// end closes span id and returns its duration in µs.
func (r *recorder) end(id int) float64 {
	r.spans[id].EndUS = r.now()
	return r.spans[id].EndUS - r.spans[id].StartUS
}

// timed runs fn under a span and returns its duration in µs and the heap
// allocations it made. The allocation count is read around, not inside,
// the span, so it costs the timing nothing.
func (r *recorder) timed(name, layer string, parent, item int, fn func()) (us float64, allocs float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	id := r.start(name, layer, parent, item)
	fn()
	us = r.end(id)
	runtime.ReadMemStats(&after)
	return us, float64(after.Mallocs - before.Mallocs)
}

// selfTimes is each layer's self time in µs: every span's duration minus
// the time its children cover.
func (r *recorder) selfTimes() map[string]float64 {
	child := make([]float64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndUS - s.StartUS
		}
	}
	self := map[string]float64{}
	for i, s := range r.spans {
		self[s.Layer] += s.EndUS - s.StartUS - child[i]
	}
	return self
}

// dump writes the spans, the per-layer self times and the environment
// stamp to path.
func (r *recorder) dump(path string, env envStamp) error {
	self := r.selfTimes()
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return self[layers[i]] > self[layers[j]] })
	type layerSelf struct {
		Layer  string  `json:"layer"`
		SelfUS float64 `json:"self_us"`
	}
	doc := struct {
		Env   envStamp    `json:"env"`
		Self  []layerSelf `json:"self_time_by_layer"`
		Spans []span      `json:"spans"`
	}{Env: env, Spans: r.spans}
	for _, l := range layers {
		doc.Self = append(doc.Self, layerSelf{l, self[l]})
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// spanLayers are the layers whose self-time share the traced run reports.
var spanLayers = []string{"item", "modelzoo", "isa", "machine", "progcheck", "uniproc", "simd", "mimd", "dataflow", "fabric", "obs", "conformance", "flexbench"}

// families are the class-simulator layers, keyed by taxonomy machine type.
var families = []string{"uniproc", "simd", "mimd", "dataflow", "fabric"}

// family names the simulator layer that runs class c.
func family(c taxonomy.Class) string {
	switch {
	case c.String() == "IUP":
		return "uniproc"
	case c.Name.Machine == taxonomy.InstructionFlow && c.Name.Proc == taxonomy.ArrayProcessor:
		return "simd"
	case c.Name.Machine == taxonomy.InstructionFlow:
		return "mimd"
	case c.Name.Machine == taxonomy.DataFlow:
		return "dataflow"
	default:
		return "fabric"
	}
}

// engineStats accumulates the engine-layer replay.
type engineStats struct {
	checkKernel, predecode, cfg, compile, check []float64
	compileAllocs, checkAllocs                  []float64
	collect, collectAllocs, events, slowdown    []float64
	rejections                                  int
	famInstr, famSeconds                        map[string]float64
	famAllocs                                   map[string][]float64
}

func newEngineStats() *engineStats {
	return &engineStats{famInstr: map[string]float64{}, famSeconds: map[string]float64{}, famAllocs: map[string][]float64{}}
}

// replay runs one (class, kernel, n, procs) item through each engine
// layer's public functions, in the order a served simulation reaches them:
// the admission check, the staged programs' decode/CFG/compile/check, the
// untraced and traced runs, and the obs aggregation of the trace.
func (st *engineStats) replay(r *recorder, item int, t tuple) error {
	c, err := taxonomy.LookupString(t.Class)
	if err != nil {
		return err
	}
	root := r.start(t.String(), "item", -1, item)
	defer r.end(root)

	us, _ := r.timed("modelzoo.CheckKernel", "modelzoo", root, item, func() {
		_, err = modelzoo.CheckKernel(c, t.Kernel, t.N, t.Procs)
	})
	if err != nil && !modelzoo.Unsupported(err) {
		return fmt.Errorf("%s: CheckKernel: %w", t, err)
	}
	st.checkKernel = append(st.checkKernel, us)

	var specs []workload.ProgramSpec
	r.timed("modelzoo.RunKernel/sink", "modelzoo", root, item, func() {
		_, err = modelzoo.RunKernel(c, t.Kernel, t.N, t.Procs, workload.WithProgramSink(&specs))
	})
	if err != nil {
		return fmt.Errorf("%s: program sink: %w", t, err)
	}
	for _, s := range specs {
		var dec isa.DecodedProgram
		us, _ = r.timed("isa.Predecode", "isa", root, item, func() { dec = isa.Predecode(s.Program) })
		st.predecode = append(st.predecode, us)
		us, _ = r.timed("isa.BuildCFG", "isa", root, item, func() { isa.BuildCFG(dec) })
		st.cfg = append(st.cfg, us)
		us, allocs := r.timed("machine.Compile", "machine", root, item, func() { machine.Compile(dec, machine.CompileOptions{}) })
		st.compile, st.compileAllocs = append(st.compile, us), append(st.compileAllocs, allocs)
		var rep *progcheck.Report
		us, allocs = r.timed("progcheck.Check", "progcheck", root, item, func() {
			rep = progcheck.Check(s.Program, progcheck.Target{MemWords: s.MemWords, Procs: s.Procs, HasNetwork: s.HasNetwork, HasBarrier: s.HasBarrier})
		})
		st.check, st.checkAllocs = append(st.check, us), append(st.checkAllocs, allocs)
		if !rep.Clean(report.SevWarn) || !rep.Budget.Bounded {
			st.rejections++
		}
	}

	fam := family(c)
	var res workload.Result
	plain, allocs := r.timed("modelzoo.RunKernel", fam, root, item, func() {
		res, err = modelzoo.RunKernel(c, t.Kernel, t.N, t.Procs)
	})
	if err != nil {
		return fmt.Errorf("%s: run: %w", t, err)
	}
	st.famInstr[fam] += float64(res.Stats.Instructions)
	st.famSeconds[fam] += plain / 1e6
	st.famAllocs[fam] = append(st.famAllocs[fam], allocs)

	trace := obs.NewTrace()
	traced, _ := r.timed("modelzoo.RunKernel/traced", fam, root, item, func() {
		_, err = modelzoo.RunKernel(c, t.Kernel, t.N, t.Procs, workload.WithTracer(trace))
	})
	if err != nil {
		return fmt.Errorf("%s: traced run: %w", t, err)
	}
	st.slowdown = append(st.slowdown, ratio(traced, plain))

	reg := obs.NewRegistry()
	us, allocs = r.timed("obs.Collect", "obs", root, item, func() { err = obs.Collect(reg, trace.Events()) })
	if err != nil {
		return fmt.Errorf("%s: collect: %w", t, err)
	}
	st.collect, st.collectAllocs = append(st.collect, us), append(st.collectAllocs, allocs)
	st.events = append(st.events, float64(trace.Len()))
	return nil
}

// report writes the engine-layer metrics.
func (st *engineStats) report(m metrics) {
	m.set("modelzoo.check_kernel_us", "us", mean(st.checkKernel))
	m.set("isa.predecode_us", "us", mean(st.predecode))
	m.set("isa.cfg_us", "us", mean(st.cfg))
	m.set("machine.compile_us", "us", mean(st.compile))
	m.set("machine.compile_allocs", "count", mean(st.compileAllocs))
	m.set("progcheck.check_us", "us", mean(st.check))
	m.set("progcheck.check_allocs", "count", mean(st.checkAllocs))
	m.set("progcheck.rejections", "count", float64(st.rejections))
	m.set("obs.collect_us", "us", mean(st.collect))
	m.set("obs.collect_allocs", "count", mean(st.collectAllocs))
	m.set("obs.events", "count", mean(st.events))
	m.set("obs.trace_slowdown", "x", median(st.slowdown))
	for _, f := range families {
		m.set(f+".guest_mips", "MIPS", ratio(st.famInstr[f], st.famSeconds[f])/1e6)
		m.set(f+".allocs_per_item", "count", mean(st.famAllocs[f]))
	}
}

// reportSelf writes each layer's share of the replay's self time and dumps
// the spans.
func reportSelf(r *recorder, m metrics, o options, env envStamp) error {
	self := r.selfTimes()
	var total float64
	for _, v := range self {
		total += v
	}
	for _, l := range spanLayers {
		m.set("self."+l+"_share", "ratio", ratio(self[l], total))
	}
	path := filepath.Join(o.out, fmt.Sprintf("spans-%s-seed%d.json", o.workload, o.seed))
	if err := r.dump(path, env); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: span dump with per-layer self time: %s\n", path)
	return nil
}
