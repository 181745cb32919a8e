package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// concurrency is the load limit: no more sending goroutines, and no more
// connections, than the machine has CPUs.
func concurrency() int { return runtime.NumCPU() }

// request is one scheduled batch: the endpoint, its pre-encoded body and
// the number of batch items it carries.
type request struct {
	path  string
	body  []byte
	items int
	// tag is the workload's own handle on the request (its batch).
	tag int
}

// outcome is what one sent request produced. Times are in ms, measured
// from the request's scheduled send time.
type outcome struct {
	sent   bool
	status int
	body   []byte
	err    error
	// lagMS is how late the request left the generator; latMS is the time
	// from its scheduled send until the whole response was read.
	lagMS, latMS float64
}

// phaseRun is one open-loop phase at one fixed rate.
type phaseRun struct {
	reqs     []request
	outcomes []outcome
	// sent counts dispatched requests; aborted reports that the phase was
	// cut because the backlog of due-but-unsent requests grew past its
	// limit.
	sent    int
	aborted bool
	elapsed time.Duration
}

// openLoop sends reqs on a fixed schedule (request k is due at
// start + k/rate) from concurrency() sender goroutines, each latency timed
// from when the request was due, so queueing behind a slow server is
// charged to the requests rather than silently thinning the load (the
// coordinated-omission correction). maxBacklog > 0 aborts the phase once
// that many requests are due but unsent.
func openLoop(ls *liveServer, reqs []request, rate float64, maxBacklog int) phaseRun {
	pr := phaseRun{reqs: reqs, outcomes: make([]outcome, len(reqs))}
	interval := time.Duration(float64(time.Second) / rate)
	due := make(chan int, len(reqs))
	var started atomic.Int64
	var wg sync.WaitGroup
	begin := time.Now()
	for s := 0; s < concurrency(); s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range due {
				sched := begin.Add(time.Duration(i) * interval)
				o := &pr.outcomes[i]
				o.sent = true
				o.lagMS = msSince(sched)
				started.Add(1)
				o.status, o.body, o.err = ls.post(reqs[i].path, reqs[i].body)
				o.latMS = msSince(sched)
			}
		}()
	}
	for i := range reqs {
		if d := time.Until(begin.Add(time.Duration(i) * interval)); d > 0 {
			time.Sleep(d)
		}
		if maxBacklog > 0 && int64(i)-started.Load() > int64(maxBacklog) {
			pr.aborted = true
			break
		}
		due <- i
		pr.sent++
	}
	close(due)
	wg.Wait()
	pr.elapsed = time.Since(begin)
	return pr
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// latencies returns the latency and lag samples of the sent requests.
func (pr *phaseRun) latencies() (lat, lag []float64) {
	for _, o := range pr.outcomes {
		if o.sent {
			lat = append(lat, o.latMS)
			lag = append(lag, o.lagMS)
		}
	}
	return lat, lag
}
