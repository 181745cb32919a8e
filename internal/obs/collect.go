package obs

import (
	"strconv"

	"repro/internal/isa"
)

// Standard metric names every simulator run exports. The counter values
// are defined so that they equal the corresponding machine.Stats fields of
// the traced run — the invariant cmd/simulate -metrics cross-checks.
const (
	MetricInstructions  = "sim_instructions_total"
	MetricALUOps        = "sim_alu_ops_total"
	MetricMemReads      = "sim_mem_reads_total"
	MetricMemWrites     = "sim_mem_writes_total"
	MetricMessages      = "sim_messages_total"
	MetricBarriers      = "sim_barriers_total"
	MetricNetConflict   = "sim_net_conflict_cycles_total"
	MetricReconfigs     = "sim_reconfigs_total"
	MetricReconfigBits  = "sim_reconfig_bits_total"
	MetricCycles        = "sim_cycles"
	MetricTracks        = "sim_tracks"
	MetricInstrMix      = "sim_instruction_mix_total"
	MetricStallHist     = "sim_net_stall_cycles"
	MetricQueueWaitHist = "sim_queue_wait_cycles"
	MetricTrackInstrs   = "sim_track_instructions_total"
)

// StallBuckets are the contention-stall histogram bounds in cycles.
var StallBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128}

// Totals are the run totals of one event stream. The first seven fields
// equal the machine.Stats fields of the same name for the traced run;
// Reconfigs and ReconfigBits count the fabric's bitstream loads and Cycles
// is the makespan (the latest event end).
type Totals struct {
	Instructions, ALUOps, MemReads, MemWrites, Messages, Barriers, NetConflictCycles int64
	Reconfigs, ReconfigBits, Cycles                                                  int64
}

// add folds one event into t: the single aggregation rule behind both
// Tally and Collect's run-total counters.
func (t *Totals) add(e *Event) {
	if end := e.Cycle + e.Dur; end > t.Cycles {
		t.Cycles = end
	}
	switch e.Kind {
	case KindInstr:
		t.Instructions++
		if e.Flags&FlagALU != 0 {
			t.ALUOps++
		}
	case KindMemRead:
		t.MemReads++
	case KindMemWrite:
		t.MemWrites++
	case KindSend, KindRecv:
		t.Messages++
	case KindBarrier:
		t.Barriers++
	case KindStall:
		t.NetConflictCycles += e.Arg
	case KindReconfig:
		t.Reconfigs++
		t.ReconfigBits += e.Arg
	case KindWait, KindPhase:
		// Waits feed the queue-wait histogram and phases the trace views;
		// neither is a run total.
	}
}

// Tally sums an event stream's run totals in one pass without allocating:
// the registry-free side of the metrics == machine.Stats cross-check.
func Tally(events []Event) Totals {
	var t Totals
	for i := range events {
		t.add(&events[i])
	}
	return t
}

// Tally sums the recorded events' run totals under the recorder's lock,
// without copying them.
func (t *Trace) Tally() Totals {
	t.mu.Lock()
	defer t.mu.Unlock()
	return Tally(t.events)
}

// nodeSlot is the instruction-mix slot of dataflow node firings (KindInstr
// without FlagHasOp); slots below it are the opcode byte an event carries.
const nodeSlot = 256

// mixRow is one track's dense instruction mix.
type mixRow struct {
	track  int32
	instrs int64
	ops    [nodeSlot + 1]int64
}

// denseTracks bounds the directly indexed track range [TrackMachine,
// denseTracks); simulators number their processors from 0, so only
// synthetic streams reach the sparse map.
const denseTracks = 1 << 12

// trackRows finds each track's mix row in first-seen order.
type trackRows struct {
	dense  []int32         // track+1 -> row index+1; 0 means not seen
	sparse map[int32]int32 // tracks outside the dense range -> row index
	rows   []mixRow
}

// row returns the index of track's row, creating it on first sight.
func (tr *trackRows) row(track int32) int32 {
	i := int(track) + 1
	if i < 0 || i > denseTracks {
		r, ok := tr.sparse[track]
		if !ok {
			r = tr.add(track)
			tr.sparse[track] = r
		}
		return r
	}
	if i >= len(tr.dense) {
		tr.dense = append(tr.dense, make([]int32, i+1-len(tr.dense))...)
	}
	if tr.dense[i] == 0 {
		tr.dense[i] = tr.add(track) + 1
	}
	return tr.dense[i] - 1
}

// add appends an empty row for track and returns its index.
func (tr *trackRows) add(track int32) int32 {
	tr.rows = append(tr.rows, mixRow{track: track})
	return int32(len(tr.rows) - 1)
}

// Collect aggregates a recorded event stream into reg using the standard
// metric names: run totals, the per-track instruction counts and
// instruction mix, the contention-stall histogram and the queue-wait
// (dataflow backlog, barrier entry) histogram. It can be called once per
// run; counters accumulate across calls on the same registry.
//
// One pass folds every event into Totals and a dense per-track opcode row;
// each series is then registered once with its total, so the cost per
// event is a few array adds and the allocations scale with the number of
// series, not events.
func Collect(reg *Registry, events []Event) error {
	stallHist := reg.MustHistogram(MetricStallHist, "interconnect stall lengths in cycles", StallBuckets)
	waitHist := reg.MustHistogram(MetricQueueWaitHist, "non-contention wait lengths in cycles (PE backlog, barrier entry)", StallBuckets)

	var tot Totals
	tr := trackRows{sparse: map[int32]int32{}}
	for i := range events {
		e := &events[i]
		tot.add(e)
		r := tr.row(e.Track) // may grow tr.rows: index only afterwards
		row := &tr.rows[r]
		switch e.Kind {
		case KindInstr:
			slot := nodeSlot
			if e.Flags&FlagHasOp != 0 {
				slot = int(uint8(e.Arg)) // isa.Op is a byte
			}
			row.ops[slot]++
			row.instrs++
		case KindStall:
			// Observed per event: the histogram's float sum must add
			// samples in stream order to stay bit-identical.
			stallHist.Observe(float64(e.Arg))
		case KindWait:
			waitHist.Observe(float64(e.Dur))
		case KindMemRead, KindMemWrite, KindSend, KindRecv, KindBarrier, KindReconfig, KindPhase:
			// Run totals only, folded by tot.add.
		}
	}

	reg.MustCounter(MetricInstructions, "retired instructions (all tracks)").Add(tot.Instructions)
	reg.MustCounter(MetricALUOps, "arithmetic/logic operations").Add(tot.ALUOps)
	reg.MustCounter(MetricMemReads, "DP-DM read traversals").Add(tot.MemReads)
	reg.MustCounter(MetricMemWrites, "DP-DM write traversals").Add(tot.MemWrites)
	reg.MustCounter(MetricMessages, "DP-DP and IP-IP network words").Add(tot.Messages)
	reg.MustCounter(MetricBarriers, "completed synchronizations").Add(tot.Barriers)
	reg.MustCounter(MetricNetConflict, "cycles lost to interconnect contention").Add(tot.NetConflictCycles)
	reg.MustCounter(MetricReconfigs, "configuration bitstream loads").Add(tot.Reconfigs)
	reg.MustCounter(MetricReconfigBits, "configuration bits loaded").Add(tot.ReconfigBits)

	tracks := 0
	for i := range tr.rows {
		row := &tr.rows[i]
		if row.track != TrackMachine {
			tracks++
		}
		if row.instrs == 0 {
			continue
		}
		track := strconv.Itoa(int(row.track))
		for slot, n := range row.ops {
			if n == 0 {
				continue
			}
			op := "node"
			if slot != nodeSlot {
				op = isa.Op(slot).String()
			}
			mix, err := reg.Counter(MetricInstrMix, "retired instructions by track and operation",
				"track", track, "op", op)
			if err != nil {
				return err
			}
			mix.Add(n)
		}
		perTrack, err := reg.Counter(MetricTrackInstrs, "retired instructions per track", "track", track)
		if err != nil {
			return err
		}
		perTrack.Add(row.instrs)
	}
	reg.MustGauge(MetricCycles, "run makespan in guest cycles (max event end)").Set(float64(tot.Cycles))
	reg.MustGauge(MetricTracks, "distinct processor tracks observed").Set(float64(tracks))
	return nil
}
