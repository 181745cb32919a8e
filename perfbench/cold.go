package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/conformance"
	"repro/internal/modelzoo"
	"repro/internal/report"
	"repro/internal/server"
	"repro/internal/taxonomy"
)

// tuple is one /v1/simulate item: a distinct (class, kernel, n, procs).
type tuple struct {
	Class  string `json:"class"`
	Kernel string `json:"kernel"`
	N      int    `json:"n"`
	Procs  int    `json:"procs"`
}

func (t tuple) String() string {
	return fmt.Sprintf("%s %s n=%d procs=%d", t.Class, t.Kernel, t.N, t.Procs)
}

// expected is a direct, untimed modelzoo.RunKernel of one tuple: what the
// served answer must report.
type expected struct {
	cycles, instructions int64
	head                 []int64
	// checked is whether the server must have cross-checked the obs
	// metrics (every class but the metrics-exempt USP fabric).
	checked bool
}

// runDirect computes one tuple's expected answer.
func runDirect(t tuple) (expected, error) {
	c, err := taxonomy.LookupString(t.Class)
	if err != nil {
		return expected{}, err
	}
	res, err := modelzoo.RunKernel(c, t.Kernel, t.N, t.Procs)
	if err != nil {
		return expected{}, err
	}
	e := expected{cycles: res.Stats.Cycles, instructions: res.Stats.Instructions, checked: c.Name.Machine != taxonomy.UniversalFlow}
	for i := 0; i < len(res.Output) && i < 8; i++ {
		e.head = append(e.head, int64(res.Output[i]))
	}
	return e, nil
}

// verifySimulate checks one served /v1/simulate item against its expected
// answer: no per-item error, the same cycles, instructions and output
// head, and the obs cross-check done on every non-USP class.
func verifySimulate(raw json.RawMessage, t tuple, want expected) error {
	var got server.SimulateResponse
	if err := json.Unmarshal(raw, &got); err != nil {
		return fmt.Errorf("%s: undecodable item: %v", t, err)
	}
	switch {
	case got.Error != nil:
		return fmt.Errorf("%s: item error %s: %s", t, got.Error.Code, got.Error.Message)
	case got.Class != t.Class || got.Kernel != t.Kernel || got.N != t.N || got.Procs != t.Procs:
		return fmt.Errorf("%s: answer is for %s %s n=%d procs=%d", t, got.Class, got.Kernel, got.N, got.Procs)
	case got.Cycles != want.cycles || got.Instructions != want.instructions:
		return fmt.Errorf("%s: cycles/instructions %d/%d, direct run %d/%d", t, got.Cycles, got.Instructions, want.cycles, want.instructions)
	case !slices.Equal(got.OutputHead, want.head):
		return fmt.Errorf("%s: output_head %v, direct run %v", t, got.OutputHead, want.head)
	case got.MetricsChecked != want.checked:
		return fmt.Errorf("%s: metrics_checked %v, want %v", t, got.MetricsChecked, want.checked)
	}
	return nil
}

// simPool is every admissible simulate item with its expected answer.
type simPool struct {
	tuples []tuple
	want   map[tuple]expected
}

// Problem sizes and processor counts of the simulate pool. matmul is
// capped lower: its cost grows ~2 µs per traced event, ~1000 events per row.
var (
	poolSizes       = []int{16, 32, 64, 128, 256, 512}
	poolMatmulSizes = []int{16, 32}
	poolProcs       = []int{4, 8, 16}
)

// buildPool enumerates the runnable cells (every conformance.Matrix class
// modelzoo.RunKernel dispatches, so not the ISP spatial machines) crossed
// with the pool sizes, and keeps the tuples the admission gate accepts and
// a direct run completes. The pool does not depend on the seed; the seed
// only picks samples and order from it.
func buildPool() (*simPool, error) {
	var cands []tuple
	for _, cell := range conformance.Matrix() {
		if cell.Class[:3] == "ISP" {
			continue
		}
		sizes := poolSizes
		if cell.Kernel == string(modelzoo.KernelMatMul) {
			sizes = poolMatmulSizes
		}
		for _, n := range sizes {
			for _, p := range poolProcs {
				cands = append(cands, tuple{cell.Class, cell.Kernel, n, p})
			}
		}
	}
	ok := make([]bool, len(cands))
	wants := make([]expected, len(cands))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < concurrency(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if admissible(cands[i]) {
					var err error
					wants[i], err = runDirect(cands[i])
					ok[i] = err == nil
				}
			}
		}()
	}
	for i := range cands {
		next <- i
	}
	close(next)
	wg.Wait()
	p := &simPool{want: map[tuple]expected{}}
	for i, t := range cands {
		if ok[i] {
			p.tuples = append(p.tuples, t)
			p.want[t] = wants[i]
		}
	}
	if len(p.tuples) == 0 {
		return nil, fmt.Errorf("no admissible simulate items")
	}
	return p, nil
}

// admissible mirrors the server's admission gate: every staged guest
// program checks clean at Warn and has a bounded cycle budget.
func admissible(t tuple) bool {
	c, err := taxonomy.LookupString(t.Class)
	if err != nil {
		return false
	}
	progs, err := modelzoo.CheckKernel(c, t.Kernel, t.N, t.Procs)
	if err != nil {
		return false
	}
	for _, p := range progs {
		if !p.Report.Clean(report.SevWarn) || !p.Report.Budget.Bounded {
			return false
		}
	}
	return true
}

// stratifiedOrder permutes the pool so that every prefix holds each
// (kernel, n) stratum in proportion to its size: a phase that stops early
// still sees the same item mix, whatever the seed.
func stratifiedOrder(rng *rand.Rand, ts []tuple) []tuple {
	strata := map[string][]tuple{}
	var keys []string
	for _, t := range ts {
		k := fmt.Sprintf("%s/%d", t.Kernel, t.N)
		if strata[k] == nil {
			keys = append(keys, k)
		}
		strata[k] = append(strata[k], t)
	}
	type placed struct {
		t   tuple
		pos float64
	}
	var all []placed
	for _, k := range keys {
		s := strata[k]
		rng.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
		for i, t := range s {
			all = append(all, placed{t, (float64(i) + rng.Float64()) / float64(len(s))})
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].pos < all[j].pos })
	out := make([]tuple, len(all))
	for i, p := range all {
		out[i] = p.t
	}
	return out
}

// maxColdBatch is the largest simulate-cold batch. A light batch's size
// is drawn uniformly from 1..maxColdBatch and cut short before a heavy
// item.
const maxColdBatch = 4

// coldWorkload is simulate-cold: every item a distinct admissible tuple,
// so every item misses the cache.
type coldWorkload struct {
	seed    int64
	pool    *simPool
	batches [][]tuple // by request tag
}

func runSimulateCold(o options, env envStamp, res *result) error {
	pool, err := buildPool()
	if err != nil {
		return err
	}
	c := &coldWorkload{seed: o.seed, pool: pool}
	if o.trace {
		return c.runTraced(o, env, res)
	}
	return c.run(o, res)
}

// Simulate-cold traffic: fixed absolute rates in requests/s. The reference
// rate keeps the two CPUs about half busy; the ladder rungs sit well below
// capacity, so a host running slow for a while does not flip them. A rate
// passes toward goodput_rps when its p99 meets coldP99LimitMS.
const (
	coldRefRate    = 45
	coldP99LimitMS = 250
)

var coldRungs = []float64{50, 55}

// heavy marks the items whose traced run costs tens of milliseconds
// (matmul, long FIR). Each travels in a batch of its own, so the latency
// tail is one heavy item, not a chance pile-up of several in one batch.
func heavy(t tuple) bool {
	return t.Kernel == string(modelzoo.KernelMatMul) || (t.Kernel == string(modelzoo.KernelFIR) && t.N >= 128)
}

// requests draws phase k's batches: a fresh stratified order of the whole
// pool (each phase runs on a fresh server, so each is cold), cut into
// batches of 1..maxColdBatch light items or one heavy item.
func (c *coldWorkload) requests(phase, n int) []request {
	rng := rand.New(rand.NewSource(c.seed*1_000_003 + int64(phase)))
	order := stratifiedOrder(rng, slices.Clone(c.pool.tuples))
	var reqs []request
	for len(order) > 0 && len(reqs) < n {
		limit, k := 1+rng.Intn(maxColdBatch), 1
		for !heavy(order[0]) && k < limit && k < len(order) && !heavy(order[k]) {
			k++
		}
		batch := order[:k:k]
		order = order[k:]
		body, _ := json.Marshal(server.BatchEnvelope[tuple]{Requests: batch})
		reqs = append(reqs, request{path: "/v1/simulate", body: body, items: k, tag: len(c.batches)})
		c.batches = append(c.batches, batch)
	}
	return reqs
}

// check verifies every served item; failures are reported on stderr.
func (c *coldWorkload) check(pr *phaseRun) (items, failed int) {
	for i := range pr.outcomes {
		o := &pr.outcomes[i]
		if !o.sent {
			continue
		}
		batch := c.batches[pr.reqs[i].tag]
		items += len(batch)
		for _, err := range checkBatch(o, batch, c.pool.want) {
			failed++
			reportFailure(err)
		}
	}
	return items, failed
}

// checkBatch verifies one /v1/simulate response item by item and returns
// one error per failed item.
func checkBatch(o *outcome, batch []tuple, want map[tuple]expected) []error {
	fail := func(err error) []error {
		errs := make([]error, len(batch))
		for i := range errs {
			errs[i] = err
		}
		return errs
	}
	if !httpOK(o) {
		return fail(fmt.Errorf("/v1/simulate: status %d, err %v, body %.200s", o.status, o.err, o.body))
	}
	var env struct {
		Results []json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(o.body, &env); err != nil || len(env.Results) != len(batch) {
		return fail(fmt.Errorf("/v1/simulate: %d results for %d items (%v)", len(env.Results), len(batch), err))
	}
	var errs []error
	for j, t := range batch {
		if err := verifySimulate(env.Results[j], t, want[t]); err != nil {
			errs = append(errs, err)
		}
	}
	return errs
}

func (c *coldWorkload) served(pr *phaseRun) []tuple {
	var out []tuple
	for i := range pr.outcomes {
		if pr.outcomes[i].sent {
			out = append(out, c.batches[pr.reqs[i].tag]...)
		}
	}
	return out
}

// failuresShown counts reported check failures; only the first few print.
var failuresShown atomic.Int64

func reportFailure(err error) {
	if failuresShown.Add(1) <= 10 {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %v\n", err)
	}
}
