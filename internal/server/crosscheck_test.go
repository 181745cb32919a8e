package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/taxonomy"
	"repro/internal/workload"
)

// TestSimulateCrossCheckFailsItem pins the served cross-check's teeth: a
// run whose Stats drift from its trace by one on any checked field fails
// its item with run_failed, and the message names the metric with both
// numbers.
func TestSimulateCrossCheckFailsItem(t *testing.T) {
	for _, tc := range []struct {
		metric string
		field  func(*machine.Stats) *int64
	}{
		{obs.MetricInstructions, func(s *machine.Stats) *int64 { return &s.Instructions }},
		{obs.MetricALUOps, func(s *machine.Stats) *int64 { return &s.ALUOps }},
		{obs.MetricMemReads, func(s *machine.Stats) *int64 { return &s.MemReads }},
		{obs.MetricMemWrites, func(s *machine.Stats) *int64 { return &s.MemWrites }},
		{obs.MetricMessages, func(s *machine.Stats) *int64 { return &s.Messages }},
		{obs.MetricBarriers, func(s *machine.Stats) *int64 { return &s.Barriers }},
		{obs.MetricNetConflict, func(s *machine.Stats) *int64 { return &s.NetConflictCycles }},
	} {
		t.Run(tc.metric, func(t *testing.T) {
			var traced int64
			orig := runKernel
			runKernel = func(c taxonomy.Class, kernel string, n, procs int, opts ...workload.Option) (workload.Result, error) {
				res, err := orig(c, kernel, n, procs, opts...)
				traced = *tc.field(&res.Stats)
				*tc.field(&res.Stats)++
				return res, err
			}
			defer func() { runKernel = orig }()

			_, ts := newTestServer(t, Config{})
			status, body := post(t, ts, "/v1/simulate", `{"requests":[{"class":"IMP-II","kernel":"dot","n":64,"procs":4}]}`)
			if status != http.StatusOK {
				t.Fatalf("status %d: %s", status, body)
			}
			var item SimulateResponse
			if err := json.Unmarshal(decodeResults(t, body)[0], &item); err != nil {
				t.Fatal(err)
			}
			if item.Error == nil || item.Error.Code != CodeRunFailed {
				t.Fatalf("drifted %s: want a run_failed item, got %s", tc.metric, body)
			}
			want := fmt.Sprintf("%s = %d, stats say %d", tc.metric, traced, traced+1)
			if !strings.Contains(item.Error.Message, want) {
				t.Errorf("error %q does not contain %q", item.Error.Message, want)
			}
		})
	}
}
