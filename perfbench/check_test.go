package main

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/server"
)

// servedAnswer builds the answer a correct server gives for t.
func servedAnswer(t *testing.T, tp tuple) (server.SimulateResponse, expected) {
	t.Helper()
	want, err := runDirect(tp)
	if err != nil {
		t.Fatalf("direct run of %s: %v", tp, err)
	}
	return server.SimulateResponse{
		Class: tp.Class, Kernel: tp.Kernel, N: tp.N, Procs: tp.Procs,
		Cycles: want.cycles, Instructions: want.instructions,
		OutputHead: want.head, MetricsChecked: want.checked,
	}, want
}

func TestVerifySimulateCatchesCorruptedAnswers(t *testing.T) {
	tp := tuple{Class: "IMP-I", Kernel: "dot", N: 64, Procs: 4}
	good, want := servedAnswer(t, tp)
	raw, _ := json.Marshal(good)
	if err := verifySimulate(raw, tp, want); err != nil {
		t.Fatalf("a correct answer was rejected: %v", err)
	}
	corruptions := map[string]func(r *server.SimulateResponse){
		"cycles":          func(r *server.SimulateResponse) { r.Cycles++ },
		"instructions":    func(r *server.SimulateResponse) { r.Instructions-- },
		"output_head":     func(r *server.SimulateResponse) { r.OutputHead[0] ^= 1 },
		"short head":      func(r *server.SimulateResponse) { r.OutputHead = r.OutputHead[:len(r.OutputHead)-1] },
		"metrics_checked": func(r *server.SimulateResponse) { r.MetricsChecked = false },
		"wrong item":      func(r *server.SimulateResponse) { r.Procs = 8 },
		"item error": func(r *server.SimulateResponse) {
			r.Error = &server.APIError{Code: server.CodeRunFailed, Message: "boom"}
		},
	}
	for name, corrupt := range corruptions {
		bad := good
		bad.OutputHead = append([]int64(nil), good.OutputHead...)
		corrupt(&bad)
		raw, _ := json.Marshal(bad)
		if err := verifySimulate(raw, tp, want); err == nil {
			t.Errorf("%s: corrupted answer passed the check", name)
		}
	}
}

func TestCheckBatchCountsItemErrorsInsideA200(t *testing.T) {
	a := tuple{Class: "IAP-II", Kernel: "vecadd", N: 32, Procs: 4}
	b := tuple{Class: "IUP", Kernel: "dot", N: 16, Procs: 4}
	good, wantA := servedAnswer(t, a)
	_, wantB := servedAnswer(t, b)
	body, _ := json.Marshal(map[string]any{"results": []any{
		good,
		map[string]any{"error": map[string]string{"code": server.CodeRunFailed, "message": "run failed"}},
	}})
	o := &outcome{sent: true, status: 200, body: body}
	errs := checkBatch(o, []tuple{a, b}, map[tuple]expected{a: wantA, b: wantB})
	if len(errs) != 1 || !strings.Contains(errs[0].Error(), "item error") {
		t.Fatalf("want exactly the second item to fail, got %v", errs)
	}
	o.status = 503
	if errs := checkBatch(o, []tuple{a, b}, nil); len(errs) != 2 {
		t.Fatalf("a non-2xx answer must fail every item, got %v", errs)
	}
}

func TestCheckJobRequiresPass(t *testing.T) {
	done := jobs.Job{ID: "j1", Kind: "lockstep", State: jobs.StateDone, Result: json.RawMessage(`{"pass":true}`)}
	if err := checkJob(done); err != nil {
		t.Fatalf("passing job rejected: %v", err)
	}
	for name, j := range map[string]jobs.Job{
		"pass false": {ID: "j2", State: jobs.StateDone, Result: json.RawMessage(`{"pass":false}`)},
		"no pass":    {ID: "j3", State: jobs.StateDone, Result: json.RawMessage(`{"cells":112}`)},
		"failed":     {ID: "j4", State: jobs.StateFailed, Error: "deadline"},
	} {
		if err := checkJob(j); err == nil {
			t.Errorf("%s: job passed the check", name)
		}
	}
}

func TestOpenLoopTimesEveryRequestFromItsDueTime(t *testing.T) {
	ls, err := boot(untracedConfig, "", concurrency())
	if err != nil {
		t.Fatal(err)
	}
	defer ls.stop()
	body := []byte(`{"requests":[{"class":"IUP","compare_to":"USP"}]}`)
	reqs := make([]request, 200)
	for i := range reqs {
		reqs[i] = request{path: "/v1/flexibility", body: body, items: 1}
	}
	const rate = 2000
	pr := openLoop(ls, reqs, rate, 0)
	if pr.sent != len(reqs) || pr.aborted {
		t.Fatalf("sent %d, aborted %v; want all %d", pr.sent, pr.aborted, len(reqs))
	}
	if min := time.Duration(len(reqs)-1) * time.Second / rate; pr.elapsed < min {
		t.Fatalf("phase took %v, the schedule alone spans %v", pr.elapsed, min)
	}
	for i, o := range pr.outcomes {
		if !o.sent || !httpOK(&o) || o.lagMS < 0 || o.latMS < o.lagMS {
			t.Fatalf("request %d: sent %v status %d err %v lag %.3f ms latency %.3f ms", i, o.sent, o.status, o.err, o.lagMS, o.latMS)
		}
	}
}
