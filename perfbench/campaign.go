package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/conformance"
	"repro/internal/flexbench"
	"repro/internal/jobs"
	"repro/internal/server"
)

// Campaign job sizes. The matrix is the full conformance matrix; the
// sweeps and flexbench are sized so each kind costs a comparable share of
// a round, so a regression in any one kind moves the round time, and a
// round is short enough for every block of a run to hold several.
const (
	campaignN     = 16
	campaignProcs = 4
	lockstepSeeds = 1536
	backendSeeds  = 768
	flexbenchN    = 256
)

// jobSpec is one campaign job submission.
type jobSpec struct {
	Kind string `json:"kind"`
	Spec any    `json:"spec"`
}

// firstSweepSeed is the first lockstep and backends seed of a run.
func firstSweepSeed(seed int64) int64 { return 1 + (seed%1_000_000)*100_000 }

// campaignJobs is one round: the four job kinds, one at a time.
func campaignJobs(seed int64) []jobSpec {
	first := firstSweepSeed(seed)
	return []jobSpec{
		{"conformance", jobs.ConformanceSpec{N: campaignN, Procs: campaignProcs}},
		{"lockstep", jobs.SweepSpec{Seed: first, Seeds: lockstepSeeds}},
		{"backends", jobs.SweepSpec{Seed: first, Seeds: backendSeeds}},
		{"flexbench", jobs.FlexbenchSpec{N: flexbenchN, Procs: campaignProcs}},
	}
}

// jobRun is one finished job as the client saw it.
type jobRun struct {
	kind    string
	seconds float64
	err     error
}

// campaignLoop runs rounds back to back for window, split into runBlocks
// consecutive blocks of at least one round each. It returns each block's
// round times in ms and every job.
func campaignLoop(ls *liveServer, seed int64, window time.Duration) (blocks [][]float64, runs []jobRun, elapsed time.Duration) {
	begin := time.Now()
	for b := 1; b <= runBlocks; b++ {
		end := begin.Add(window * time.Duration(b) / runBlocks)
		var rounds []float64
		for len(rounds) == 0 || time.Now().Before(end) {
			start := time.Now()
			for _, j := range campaignJobs(seed) {
				t0 := time.Now()
				err := runJob(ls, j)
				runs = append(runs, jobRun{kind: j.Kind, seconds: time.Since(t0).Seconds(), err: err})
				if err != nil {
					reportFailure(err)
				}
			}
			rounds = append(rounds, msSince(start))
		}
		blocks = append(blocks, rounds)
	}
	return blocks, runs, time.Since(begin)
}

// runJob submits one job, follows its SSE stream to the terminal snapshot
// and checks that it finished with pass: true.
func runJob(ls *liveServer, j jobSpec) error {
	body, _ := json.Marshal(j)
	status, resp, err := ls.post("/v1/jobs", body)
	if err != nil || status != http.StatusAccepted {
		return fmt.Errorf("submit %s: status %d err %v body %.200s", j.Kind, status, err, resp)
	}
	var job jobs.Job
	if err := json.Unmarshal(resp, &job); err != nil {
		return fmt.Errorf("submit %s: %v", j.Kind, err)
	}
	final, err := follow(ls, job.ID)
	if err != nil {
		return fmt.Errorf("%s job %s: %v", j.Kind, job.ID, err)
	}
	return checkJob(final)
}

// follow reads a job's SSE stream until its terminal snapshot.
func follow(ls *liveServer, id string) (jobs.Job, error) {
	resp, err := ls.client.Get(ls.url + "/v1/jobs/" + id + "/stream")
	if err != nil {
		return jobs.Job{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return jobs.Job{}, fmt.Errorf("stream: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		data, ok := bytes.CutPrefix(sc.Bytes(), []byte("data: "))
		if !ok {
			continue
		}
		var job jobs.Job
		if err := json.Unmarshal(data, &job); err != nil {
			return jobs.Job{}, fmt.Errorf("stream event: %v", err)
		}
		switch job.State {
		case jobs.StateDone, jobs.StateFailed, jobs.StateCancelled:
			return job, nil
		}
	}
	if err := sc.Err(); err != nil {
		return jobs.Job{}, err
	}
	return jobs.Job{}, fmt.Errorf("stream ended before a terminal snapshot")
}

// checkJob requires a done job whose result reports pass: true.
func checkJob(job jobs.Job) error {
	if job.State != jobs.StateDone {
		return fmt.Errorf("%s job %s ended %s: %s", job.Kind, job.ID, job.State, job.Error)
	}
	var res struct {
		Pass *bool `json:"pass"`
	}
	if err := json.Unmarshal(job.Result, &res); err != nil || res.Pass == nil || !*res.Pass {
		return fmt.Errorf("%s job %s: result does not report pass: true (%.300s)", job.Kind, job.ID, job.Result)
	}
	return nil
}

func tally(res *result, runs []jobRun) {
	for _, r := range runs {
		res.Attempted++
		if r.err != nil {
			res.Failed++
		}
	}
}

func runCampaign(o options, env envStamp, res *result) error {
	if o.trace {
		return runCampaignTraced(o, env, res)
	}
	ls, setup, err := setupServer(o, untracedConfig, true, setupReps)
	if err != nil {
		return err
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	blocks, runs, elapsed := campaignLoop(ls, o.seed, time.Duration(o.seconds)*time.Second)
	runtime.ReadMemStats(&after)
	ls.stop()
	tally(res, runs)
	m := res.Metrics
	m.set("p50_ms", "ms", blockQuantile(blocks, 0.50))
	m.set("p99_ms", "ms", blockQuantile(blocks, 0.99))
	m.set("goodput_rps", "1/s", float64(len(runs))/elapsed.Seconds())
	m.set("alloc_mb_per_item", "MB", ratio(float64(after.TotalAlloc-before.TotalAlloc)/1e6, float64(len(runs))))
	m.set("peak_rss_mb", "MB", peakRSSMB())
	m.set("setup_s", "s", setup)
	return nil
}

// jobsObs is the campaign's job-layer reading.
type jobsObs struct {
	runs     []jobRun
	chunks   float64
	walBytes float64
}

// reportJobs writes the job-layer metrics (zero when no job ran).
func reportJobs(m metrics, j *jobsObs) {
	if j == nil {
		j = &jobsObs{}
	}
	var total float64
	byKind := map[string][]float64{}
	for _, r := range j.runs {
		total += r.seconds
		byKind[r.kind] = append(byKind[r.kind], r.seconds)
	}
	m.set("jobs.chunks", "count", j.chunks)
	m.set("jobs.chunk_ms", "ms", ratio(total*1000, j.chunks))
	m.set("jobs.wal_bytes", "bytes", j.walBytes) // mean journal size per server
	for _, k := range []string{"conformance", "lockstep", "backends", "flexbench"} {
		m.set("jobs."+k+"_job_s", "s", median(byKind[k]))
	}
}

// runCampaignTraced alternates job-loop blocks on untraced and traced
// servers, reads the job layer off the untraced ones, and replays the
// campaign's inputs through the conformance, flexbench and engine layers.
func runCampaignTraced(o options, env envStamp, res *result) error {
	window := time.Duration(0.6 * float64(o.seconds) * float64(time.Second) / (2 * tracedPairs))
	var p50 [2][]float64
	jo := &jobsObs{}
	var delta scrape
	for pair := 0; pair < tracedPairs; pair++ {
		for _, i := range pairOrder(pair) {
			cfg := []server.Config{untracedConfig, tracedConfig}[i]
			dir := filepath.Join(o.out, fmt.Sprintf("jobs-%d-traced%d", os.Getpid(), 2*pair+i))
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return err
			}
			ls, err := boot(cfg, dir, concurrency())
			if err != nil {
				return err
			}
			before, err := ls.scrape()
			if err != nil {
				ls.stop()
				return err
			}
			blocks, runs, _ := campaignLoop(ls, o.seed, window)
			after, err := ls.scrape()
			if i == 0 && err == nil {
				d := after.minus(before)
				if delta == nil {
					delta = d
				}
				jo.runs = append(jo.runs, runs...)
				jo.chunks += d.sum(jobs.MetricChunks)
				if fi, serr := os.Stat(filepath.Join(dir, "jobs.wal")); serr == nil {
					jo.walBytes += float64(fi.Size()) / tracedPairs
				}
			}
			ls.stop()
			if err != nil {
				return err
			}
			tally(res, runs)
			p50[i] = append(p50[i], blockQuantile(blocks, 0.5))
		}
	}
	m := res.Metrics
	reportServer(m, delta)
	reportJobs(m, jo)
	m.set("loadgen.lag_p99_ms", "ms", 0) // a closed loop sends when the last job ends
	m.set("loadgen.sent", "count", float64(len(jo.runs)))
	m.set("obs.tracing_overhead_pct", "%", 100*(ratio(median(p50[1]), median(p50[0]))-1))

	rec := newRecorder()
	st := newEngineStats()
	item := 0
	for _, c := range conformance.Matrix() {
		t := tuple{c.Class, c.Kernel, campaignN, campaignProcs}
		if strings.HasPrefix(t.Class, "ISP") || !admissible(t) {
			continue
		}
		if err := st.replay(rec, item, t); err != nil {
			return err
		}
		item++
	}
	st.report(m)
	cr := replayCampaign(rec, item, o.seed)
	reportCampaignReplay(m, cr)
	res.Failed += cr.failures
	return reportSelf(rec, m, o, env)
}

// campaignReplay times one round's inputs through the campaign layers'
// public calls.
type campaignReplay struct {
	cellMS, lockstepUS, backendUS, flexUS []float64
	failures                              int
}

func replayCampaign(rec *recorder, item int, seed int64) *campaignReplay {
	cr := &campaignReplay{}
	fail := func(err error) {
		cr.failures++
		reportFailure(err)
	}
	p := conformance.Params{N: campaignN, Procs: campaignProcs}
	for _, c := range conformance.Matrix() {
		var r conformance.CellResult
		us, _ := rec.timed("conformance.Run "+c.Kernel+" "+c.Class, "conformance", -1, item, func() { r = conformance.Run(c, p) })
		cr.cellMS = append(cr.cellMS, us/1000)
		if !r.Pass {
			fail(fmt.Errorf("conformance.Run %s %s: %s", c.Kernel, c.Class, r.Err))
		}
		item++
	}
	first := firstSweepSeed(seed)
	for s := first; s < first+lockstepSeeds; s++ {
		var r conformance.LockstepResult
		us, _ := rec.timed("conformance.LockstepCheck", "conformance", -1, item, func() { r = conformance.LockstepCheck(s) })
		cr.lockstepUS = append(cr.lockstepUS, us)
		if !r.Pass {
			fail(fmt.Errorf("conformance.LockstepCheck seed %d: %s", s, r.Err))
		}
		item++
	}
	for s := first; s < first+backendSeeds; s++ {
		var r conformance.BackendResult
		us, _ := rec.timed("conformance.BackendCheck", "conformance", -1, item, func() { r = conformance.BackendCheck(s) })
		cr.backendUS = append(cr.backendUS, us)
		if !r.Pass {
			fail(fmt.Errorf("conformance.BackendCheck seed %d: %s", s, r.Err))
		}
		item++
	}
	fp := flexbench.Params{N: flexbenchN, Procs: campaignProcs}
	for _, c := range flexbench.RunnableCells() {
		var r flexbench.CellMeasure
		us, _ := rec.timed("flexbench.MeasureCell "+c.Kernel+" "+c.Class, "flexbench", -1, item, func() { r = flexbench.MeasureCell(c.Kernel, c.Class, fp) })
		cr.flexUS = append(cr.flexUS, us)
		if r.Err != "" {
			fail(fmt.Errorf("flexbench.MeasureCell %s %s: %s", c.Kernel, c.Class, r.Err))
		}
		item++
	}
	return cr
}

// reportCampaignReplay writes the campaign-layer metrics (zero when the
// workload has no campaign inputs).
func reportCampaignReplay(m metrics, cr *campaignReplay) {
	if cr == nil {
		cr = &campaignReplay{}
	}
	m.set("conformance.cell_ms", "ms", mean(cr.cellMS))
	m.set("conformance.lockstep_seed_us", "us", mean(cr.lockstepUS))
	m.set("conformance.backend_seed_us", "us", mean(cr.backendUS))
	m.set("flexbench.cell_us", "us", mean(cr.flexUS))
}
