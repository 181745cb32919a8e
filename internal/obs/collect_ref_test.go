package obs_test

// Differential oracle for obs.Collect: referenceCollect is the original
// per-event aggregation (one registry lookup per retired instruction),
// kept here as the specification the dense single-pass Collect must
// reproduce byte for byte on every exposition.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/conformance"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/workload"
)

// referenceCollect aggregates events into reg one event at a time.
func referenceCollect(reg *obs.Registry, events []obs.Event) error {
	instr := reg.MustCounter(obs.MetricInstructions, "retired instructions (all tracks)")
	alu := reg.MustCounter(obs.MetricALUOps, "arithmetic/logic operations")
	reads := reg.MustCounter(obs.MetricMemReads, "DP-DM read traversals")
	writes := reg.MustCounter(obs.MetricMemWrites, "DP-DM write traversals")
	msgs := reg.MustCounter(obs.MetricMessages, "DP-DP and IP-IP network words")
	barriers := reg.MustCounter(obs.MetricBarriers, "completed synchronizations")
	conflict := reg.MustCounter(obs.MetricNetConflict, "cycles lost to interconnect contention")
	reconfigs := reg.MustCounter(obs.MetricReconfigs, "configuration bitstream loads")
	reconfigBits := reg.MustCounter(obs.MetricReconfigBits, "configuration bits loaded")
	stallHist := reg.MustHistogram(obs.MetricStallHist, "interconnect stall lengths in cycles", obs.StallBuckets)
	waitHist := reg.MustHistogram(obs.MetricQueueWaitHist, "non-contention wait lengths in cycles (PE backlog, barrier entry)", obs.StallBuckets)

	var maxCycle int64
	tracks := map[int32]bool{}
	for _, e := range events {
		if end := e.Cycle + e.Dur; end > maxCycle {
			maxCycle = end
		}
		if e.Track != obs.TrackMachine {
			tracks[e.Track] = true
		}
		switch e.Kind {
		case obs.KindInstr:
			instr.Inc()
			if e.Flags&obs.FlagALU != 0 {
				alu.Inc()
			}
			track := fmt.Sprint(e.Track)
			op := "node"
			if e.Flags&obs.FlagHasOp != 0 {
				op = isa.Op(e.Arg).String()
			}
			mix, err := reg.Counter(obs.MetricInstrMix, "retired instructions by track and operation",
				"track", track, "op", op)
			if err != nil {
				return err
			}
			mix.Inc()
			perTrack, err := reg.Counter(obs.MetricTrackInstrs, "retired instructions per track", "track", track)
			if err != nil {
				return err
			}
			perTrack.Inc()
		case obs.KindMemRead:
			reads.Inc()
		case obs.KindMemWrite:
			writes.Inc()
		case obs.KindSend, obs.KindRecv:
			msgs.Inc()
		case obs.KindBarrier:
			barriers.Inc()
		case obs.KindStall:
			conflict.Add(e.Arg)
			stallHist.Observe(float64(e.Arg))
		case obs.KindWait:
			waitHist.Observe(float64(e.Dur))
		case obs.KindReconfig:
			reconfigs.Inc()
			reconfigBits.Add(e.Arg)
		case obs.KindPhase:
		}
	}
	reg.MustGauge(obs.MetricCycles, "run makespan in guest cycles (max event end)").Set(float64(maxCycle))
	reg.MustGauge(obs.MetricTracks, "distinct processor tracks observed").Set(float64(len(tracks)))
	return nil
}

// expositions renders reg both ways.
func expositions(t testing.TB, reg *obs.Registry) (prom, js []byte) {
	t.Helper()
	var p, j bytes.Buffer
	if err := reg.WriteProm(&p); err != nil {
		t.Fatal(err)
	}
	if err := reg.WriteJSON(&j); err != nil {
		t.Fatal(err)
	}
	return p.Bytes(), j.Bytes()
}

// assertMatchesReference checks Collect against referenceCollect on one
// stream — collected once and then again onto the same registries, so the
// accumulate-across-calls contract is covered too — and checks that the
// seven run-total counters equal obs.Tally.
func assertMatchesReference(t testing.TB, events []obs.Event) {
	t.Helper()
	got, want := obs.NewRegistry(), obs.NewRegistry()
	for pass := 1; pass <= 2; pass++ {
		if err := obs.Collect(got, events); err != nil {
			t.Fatalf("Collect pass %d: %v", pass, err)
		}
		if err := referenceCollect(want, events); err != nil {
			t.Fatalf("referenceCollect pass %d: %v", pass, err)
		}
		gotProm, gotJSON := expositions(t, got)
		wantProm, wantJSON := expositions(t, want)
		if !bytes.Equal(gotProm, wantProm) {
			t.Fatalf("pass %d: WriteProm differs from the reference\n--- Collect\n%s\n--- reference\n%s", pass, gotProm, wantProm)
		}
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Fatalf("pass %d: WriteJSON differs from the reference\n--- Collect\n%s\n--- reference\n%s", pass, gotJSON, wantJSON)
		}
	}
	tot := obs.Tally(events)
	fresh := obs.NewRegistry()
	if err := obs.Collect(fresh, events); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		metric string
		want   int64
	}{
		{obs.MetricInstructions, tot.Instructions},
		{obs.MetricALUOps, tot.ALUOps},
		{obs.MetricMemReads, tot.MemReads},
		{obs.MetricMemWrites, tot.MemWrites},
		{obs.MetricMessages, tot.Messages},
		{obs.MetricBarriers, tot.Barriers},
		{obs.MetricNetConflict, tot.NetConflictCycles},
	} {
		if v, _ := fresh.CounterValue(c.metric); v != c.want {
			t.Errorf("%s = %d, Tally says %d", c.metric, v, c.want)
		}
	}
}

// TestCollectMatchesReference_Matrix runs the oracle over the event stream
// of every conformance matrix cell: every class, kernel and event kind the
// simulators really emit.
func TestCollectMatchesReference_Matrix(t *testing.T) {
	p := conformance.Params{N: 16, Procs: 4}
	for _, c := range conformance.Matrix() {
		t.Run(c.Kernel+"/"+c.Class, func(t *testing.T) {
			tr := obs.NewTrace()
			if _, _, err := c.Execute(p, workload.WithTracer(tr)); err != nil {
				t.Fatal(err)
			}
			events := tr.Events()
			if len(events) == 0 {
				t.Fatal("cell emitted no events")
			}
			assertMatchesReference(t, events)
			if got, want := tr.Tally(), obs.Tally(events); got != want {
				t.Errorf("Trace.Tally = %+v, Tally(Events()) = %+v", got, want)
			}
		})
	}
}

// fuzzEventSize is the byte width of one fuzzed event: kind, flags,
// track (int32), cycle (int32), dur (int16), arg (int32), little-endian.
const fuzzEventSize = 16

// decodeFuzzEvents unpacks an arbitrary byte soup into events; a trailing
// partial record is ignored. Every field is taken raw, so unknown kinds,
// out-of-range opcodes, negative and large tracks, negative durations and
// arguments all occur.
func decodeFuzzEvents(data []byte) []obs.Event {
	events := make([]obs.Event, 0, len(data)/fuzzEventSize)
	for ; len(data) >= fuzzEventSize; data = data[fuzzEventSize:] {
		events = append(events, obs.Event{
			Kind:  obs.Kind(data[0]),
			Flags: data[1],
			Track: int32(binary.LittleEndian.Uint32(data[2:])),
			Cycle: int64(int32(binary.LittleEndian.Uint32(data[6:]))),
			Dur:   int64(int16(binary.LittleEndian.Uint16(data[10:]))),
			Arg:   int64(int32(binary.LittleEndian.Uint32(data[12:]))),
		})
	}
	return events
}

// FuzzCollect is the differential fuzzer: on any event soup the dense
// Collect renders byte-identical expositions to the per-event reference,
// and its run totals equal Tally. Seeds live in testdata/fuzz/FuzzCollect
// (regenerate with go run ./tools/genfuzzcorpus).
func FuzzCollect(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		assertMatchesReference(t, decodeFuzzEvents(data))
	})
}

// mixStream builds n events cycling through a fixed track × op mix: four
// tracks plus the machine track, ALU and non-ALU opcodes, node firings and
// every non-instruction kind.
func mixStream(n int) []obs.Event {
	pattern := []obs.Event{
		{Kind: obs.KindInstr, Flags: obs.FlagHasOp | obs.FlagALU, Track: 0, Dur: 1, Arg: int64(isa.OpAdd)},
		{Kind: obs.KindInstr, Flags: obs.FlagHasOp, Track: 1, Dur: 1, Arg: int64(isa.OpLd)},
		{Kind: obs.KindInstr, Track: 2, Dur: 2, Arg: 9},
		{Kind: obs.KindInstr, Flags: obs.FlagHasOp, Track: 3, Dur: 1, Arg: int64(isa.OpSend)},
		{Kind: obs.KindMemRead, Track: 1, Arg: 4},
		{Kind: obs.KindMemWrite, Track: 0, Arg: 5},
		{Kind: obs.KindSend, Track: 3, Arg: 1},
		{Kind: obs.KindRecv, Track: 1, Arg: 3},
		{Kind: obs.KindStall, Track: 2, Dur: 2, Arg: 2},
		{Kind: obs.KindWait, Track: 0, Dur: 3},
		{Kind: obs.KindBarrier, Track: obs.TrackMachine},
		{Kind: obs.KindReconfig, Track: obs.TrackMachine, Arg: 64},
	}
	out := make([]obs.Event, n)
	for i := range out {
		out[i] = pattern[i%len(pattern)]
		out[i].Cycle = int64(i)
	}
	return out
}

// TestTallyZeroAllocs pins the registry-free totals pass at zero
// allocations, on a slice and on a recorder.
func TestTallyZeroAllocs(t *testing.T) {
	events := mixStream(10_000)
	tr := obs.NewTrace()
	for _, e := range events {
		tr.Emit(e)
	}
	var sink obs.Totals
	if a := testing.AllocsPerRun(20, func() { sink = obs.Tally(events) }); a != 0 {
		t.Errorf("Tally allocates %.1f times per call, want 0", a)
	}
	if a := testing.AllocsPerRun(20, func() { sink = tr.Tally() }); a != 0 {
		t.Errorf("Trace.Tally allocates %.1f times per call, want 0", a)
	}
	if sink != obs.Tally(events) {
		t.Errorf("Trace.Tally = %+v, Tally = %+v", sink, obs.Tally(events))
	}
}

// TestCollectAllocsFlatInEvents pins Collect's allocations to the number
// of series: the same track × op mix at 1k and 100k events allocates the
// same count.
func TestCollectAllocsFlatInEvents(t *testing.T) {
	allocs := func(n int) float64 {
		events := mixStream(n)
		return testing.AllocsPerRun(5, func() {
			if err := obs.Collect(obs.NewRegistry(), events); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(1_000), allocs(100_000)
	if small != large {
		t.Errorf("Collect allocs grow with events: %.0f at 1k, %.0f at 100k", small, large)
	}
}

// BenchmarkCollect times the dense aggregation against the per-event
// reference on one mixed stream:
//
//	go test ./internal/obs -run '^$' -bench Collect -benchmem
func BenchmarkCollect(b *testing.B) {
	events := mixStream(4_000)
	for _, bc := range []struct {
		name    string
		collect func(*obs.Registry, []obs.Event) error
	}{{"dense", obs.Collect}, {"reference", referenceCollect}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := bc.collect(obs.NewRegistry(), events); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("tally", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = obs.Tally(events)
		}
	})
}
