package main

import (
	"fmt"
	"net/http"
	"os"
	"runtime"
	"time"

	"repro/internal/server"
)

// runBlocks is how many consecutive blocks a run's measured phase is
// split into. p50_ms and p99_ms are the medians of the blocks' own
// quantiles, so a host that runs slow for a few seconds moves a block or
// two, not the median of them.
const runBlocks = 5

// untracedConfig and tracedConfig are the two server configurations: the
// end-to-end numbers always come from the untraced one.
var (
	untracedConfig = server.Config{DisableTracing: true}
	tracedConfig   = server.Config{}
)

// setupReps is how many times a run boots the server to time setup.
const setupReps = 15

// tracedPairs is how many (untraced, traced) block pairs a traced run
// alternates through. Alternating, and swapping the order every other
// pair, keeps a drifting host from reading as tracing overhead.
const tracedPairs = 3

// pairOrder lists the server kinds (0 untraced, 1 traced) of pair p in
// the order they run.
func pairOrder(p int) []int {
	if p%2 == 1 {
		return []int{1, 0}
	}
	return []int{0, 1}
}

// runPhase runs one open-loop phase of simulate-cold on ls and checks it.
func (c *coldWorkload) runPhase(ls *liveServer, phase int, rate float64, window time.Duration, maxBacklog int) (*phaseRun, int, int, error) {
	reqs := c.requests(phase, int(rate*window.Seconds()))
	if len(reqs) == 0 {
		return nil, 0, 0, fmt.Errorf("phase %d has no requests", phase)
	}
	pr := openLoop(ls, reqs, rate, maxBacklog)
	items, failed := c.check(&pr)
	lat, lag := pr.latencies()
	fmt.Fprintf(os.Stderr, "perfbench: phase %d at %.0f req/s: sent %d of %d in %.1fs, p50 %.2f ms, p99 %.2f ms, lag p99 %.2f ms, aborted %v, failed items %d\n",
		phase, rate, pr.sent, len(reqs), pr.elapsed.Seconds(), quantile(lat, 0.5), quantile(lat, 0.99), quantile(lag, 0.99), pr.aborted, failed)
	return &pr, items, failed, nil
}

// complete reports that a phase sent every scheduled request and no item
// failed: with p99 within the limit, its rate passes toward goodput_rps.
func complete(pr *phaseRun, failed int) bool {
	return !pr.aborted && pr.sent == len(pr.reqs) && failed == 0
}

// achieved is the rate a phase actually completed, in requests/s.
func achieved(pr *phaseRun) float64 { return float64(pr.sent) / pr.elapsed.Seconds() }

// run measures the end-to-end metrics: the reference rate in runBlocks
// blocks, each on a fresh server so every item misses, then the ladder
// rungs, each on a fresh server too.
func (c *coldWorkload) run(o options, res *result) error {
	secs := float64(o.seconds) * float64(time.Second)
	block := time.Duration(0.7 * secs / runBlocks)
	rungWindow := time.Duration(0.3 * secs / float64(len(coldRungs)))

	ls, setup, err := setupServer(o, untracedConfig, false, setupReps)
	if err != nil {
		return err
	}
	var latBlocks [][]float64
	var lags, rates []float64
	var allocBytes uint64
	refItems, clean := 0, true
	for b := 0; b < runBlocks; b++ {
		if b > 0 {
			ls.stop()
			if ls, err = boot(untracedConfig, "", concurrency()); err != nil {
				return err
			}
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		pr, items, failed, err := c.runPhase(ls, b, coldRefRate, block, 0)
		runtime.ReadMemStats(&after)
		if err != nil {
			ls.stop()
			return err
		}
		allocBytes += after.TotalAlloc - before.TotalAlloc
		refItems += items
		res.Attempted += items
		res.Failed += failed
		lat, lag := pr.latencies()
		latBlocks = append(latBlocks, lat)
		lags = append(lags, lag...)
		rates = append(rates, achieved(pr))
		clean = clean && complete(pr, failed)
	}
	ls.stop()
	if lagP99 := quantile(lags, 0.99); lagP99 > coldP99LimitMS {
		return fmt.Errorf("invalid run: the generator sent %.1f ms late at p99 at the reference rate, past the %d ms p99 limit", lagP99, coldP99LimitMS)
	}
	// goodput_rps is the achieved rate of the highest passing rate. A
	// ladder rung that fails does not stop the ladder: a host stall can
	// fail one rung, and goodput should not collapse to the reference for it.
	p99 := blockQuantile(latBlocks, 0.99)
	goodput := 0.0
	if clean && p99 <= coldP99LimitMS {
		goodput = mean(rates)
	}
	for k, rate := range coldRungs {
		ls, err := boot(untracedConfig, "", concurrency())
		if err != nil {
			return err
		}
		pr, items, failed, err := c.runPhase(ls, runBlocks+k, rate, rungWindow, int(rate))
		ls.stop()
		if err != nil {
			return err
		}
		res.Attempted += items
		res.Failed += failed
		lat, _ := pr.latencies()
		if complete(pr, failed) && quantile(lat, 0.99) <= coldP99LimitMS {
			goodput = achieved(pr)
		}
	}
	res.Metrics.set("p50_ms", "ms", blockQuantile(latBlocks, 0.50))
	res.Metrics.set("p99_ms", "ms", p99)
	res.Metrics.set("goodput_rps", "1/s", goodput)
	res.Metrics.set("alloc_mb_per_item", "MB", ratio(float64(allocBytes)/1e6, float64(refItems)))
	res.Metrics.set("peak_rss_mb", "MB", peakRSSMB())
	res.Metrics.set("setup_s", "s", setup)
	return nil
}

// runTraced measures the per-layer metrics. It alternates reference-rate
// blocks on untraced and traced servers: the server's stage histograms
// and counters and the generator's lag come from the untraced blocks,
// obs.tracing_overhead_pct from the two kinds' p50s. Then it replays
// every distinct item the untraced blocks served through the engine.
func (c *coldWorkload) runTraced(o options, env envStamp, res *result) error {
	block := time.Duration(0.6 * float64(o.seconds) * float64(time.Second) / (2 * tracedPairs))
	var p50 [2][]float64
	var lags []float64
	var delta scrape
	var served []tuple
	seen := map[tuple]bool{}
	sent := 0
	for pair := 0; pair < tracedPairs; pair++ {
		for _, i := range pairOrder(pair) {
			cfg := []server.Config{untracedConfig, tracedConfig}[i]
			ls, err := boot(cfg, "", concurrency())
			if err != nil {
				return err
			}
			before, err := ls.scrape()
			var pr *phaseRun
			var items, failed int
			if err == nil {
				pr, items, failed, err = c.runPhase(ls, 2*pair+i, coldRefRate, block, 0)
			}
			if err == nil && i == 0 && delta == nil {
				var after scrape
				after, err = ls.scrape()
				delta = after.minus(before)
			}
			ls.stop()
			if err != nil {
				return err
			}
			res.Attempted += items
			res.Failed += failed
			lat, lag := pr.latencies()
			p50[i] = append(p50[i], quantile(lat, 0.5))
			if i == 0 {
				lags = append(lags, lag...)
				sent += pr.sent
				for _, t := range c.served(pr) {
					if !seen[t] {
						seen[t] = true
						served = append(served, t)
					}
				}
			}
		}
	}
	m := res.Metrics
	reportServer(m, delta)
	reportJobs(m, nil)
	m.set("loadgen.lag_p99_ms", "ms", quantile(lags, 0.99))
	m.set("loadgen.sent", "count", float64(sent))
	m.set("obs.tracing_overhead_pct", "%", 100*(ratio(median(p50[1]), median(p50[0]))-1))

	rec := newRecorder()
	st := newEngineStats()
	for i, t := range served {
		if err := st.replay(rec, i, t); err != nil {
			return err
		}
	}
	st.report(m)
	reportCampaignReplay(m, nil)
	return reportSelf(rec, m, o, env)
}

// reportServer writes the request-path layer metrics from one phase's
// scrape delta.
func reportServer(m metrics, d scrape) {
	const stage = "repro_http_stage_seconds"
	for _, s := range []string{"decode", "cache", "exec", "encode"} {
		m.set("server."+s+"_ms", "ms", d.histMeanMS(stage, `stage="`+s+`"`))
	}
	m.set("server.rejected", "count", d.sum("repro_http_rejected_total"))
	m.set("exec.queue_ms", "ms", d.histMeanMS(stage, `stage="queue"`))
	hits, misses := d.sum("repro_cache_hits_total"), d.sum("repro_cache_misses_total")
	m.set("cache.hit_ratio", "ratio", ratio(hits, hits+misses))
	m.set("cache.coalesced", "count", d.sum("repro_cache_coalesced_total"))
	m.set("cache.evictions", "count", d.sum("repro_cache_evictions_total"))
}

// httpOK reports a 2xx status with no transport error.
func httpOK(o *outcome) bool {
	return o.err == nil && o.status >= http.StatusOK && o.status < http.StatusMultipleChoices
}
