package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/server"
)

// liveServer is one in-process server listening on a loopback port, with
// the benchmark's HTTP client bound to it.
type liveServer struct {
	srv     *server.Server
	url     string
	client  *http.Client
	served  chan error
	jobsDir string
}

// newClient returns a client that holds at most conns connections to the
// server: the load limit is one process, nproc connections.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 120 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
			IdleConnTimeout:     30 * time.Second,
		},
	}
}

// warmItems are one item per batch endpoint with lazy state to warm, each
// outside every workload's item set, so warming fills no cache entry a
// workload later reads.
var warmItems = []struct{ path, body string }{
	{"/v1/classify", `{"requests":[{"arch":{"name":"warm","ips":"1","dps":"1","ip_ip":"none","ip_dp":"1-1","ip_im":"1-1","dp_dm":"1-1","dp_dp":"none"},"n":3}]}`},
	{"/v1/flexibility", `{"requests":[{"class":"IUP"}]}`},
	{"/v1/estimate", `{"requests":[{"class":"IUP","n":3}]}`},
	{"/v1/survey", `{"requests":[{"run":true,"n":8}]}`},
	{"/v1/simulate", `{"requests":[{"class":"IMP-I","kernel":"dot","n":8,"procs":4}]}`},
}

// boot starts a server and returns once it answers /healthz and every
// workload endpoint has served one request (its lazy state is warm).
func boot(cfg server.Config, jobsDir string, conns int) (*liveServer, error) {
	cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	cfg.JobsDir = jobsDir
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Close()
		return nil, err
	}
	ls := &liveServer{srv: srv, url: "http://" + ln.Addr().String(), client: newClient(conns), served: make(chan error, 1), jobsDir: jobsDir}
	go func() { ls.served <- srv.Serve(ln) }()
	if err := ls.ready(); err != nil {
		ls.stop()
		return nil, err
	}
	return ls, nil
}

func (ls *liveServer) ready() error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := ls.client.Get(ls.url + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server never answered /healthz: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	for _, w := range warmItems {
		status, body, err := ls.post(w.path, []byte(w.body))
		if err != nil || status != http.StatusOK || bytes.Contains(body, []byte(`"error"`)) {
			return fmt.Errorf("warm-up %s failed: status %d err %v body %.200s", w.path, status, err, body)
		}
	}
	return nil
}

// post sends one JSON body and returns the status and the whole response.
func (ls *liveServer) post(path string, body []byte) (int, []byte, error) {
	resp, err := ls.client.Post(ls.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// stop drains the server, stops its job worker and removes its journal.
func (ls *liveServer) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = ls.srv.Shutdown(ctx)
	<-ls.served
	ls.client.CloseIdleConnections()
	if ls.jobsDir != "" {
		_ = os.RemoveAll(ls.jobsDir)
	}
}

// setupServer boots reps servers in a row, timing each from server.New to
// warm, and keeps the last one running. It returns the median setup time in
// seconds: setup is short, so one boot alone is too noisy to compare.
func setupServer(o options, cfg server.Config, withJobs bool, reps int) (*liveServer, float64, error) {
	var times []float64
	var ls *liveServer
	for i := 0; i < reps; i++ {
		if ls != nil {
			ls.stop()
		}
		dir := ""
		if withJobs {
			dir = filepath.Join(o.out, fmt.Sprintf("jobs-%d-%d", os.Getpid(), i))
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return nil, 0, err
			}
		}
		start := time.Now()
		var err error
		if ls, err = boot(cfg, dir, concurrency()); err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return ls, median(times), nil
}

// scrape is one /metrics?format=json reading.
type scrape []struct {
	Name   string   `json:"name"`
	Labels string   `json:"labels"`
	Value  *float64 `json:"value"`
	Sum    *float64 `json:"sum"`
	Count  *int64   `json:"count"`
}

func (ls *liveServer) scrape() (scrape, error) {
	resp, err := ls.client.Get(ls.url + "/metrics?format=json")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var s scrape
	return s, json.NewDecoder(resp.Body).Decode(&s)
}

// sum adds the values of every series of name whose labels contain all of
// the given label fragments (`endpoint="/v1/simulate"`).
func (s scrape) sum(name string, labels ...string) float64 {
	var v float64
	for _, m := range s {
		if m.Name != name || m.Value == nil || !hasLabels(m.Labels, labels) {
			continue
		}
		v += *m.Value
	}
	return v
}

// histMeanMS is the mean of the matching histogram series, in ms,
// pooled over series.
func (s scrape) histMeanMS(name string, labels ...string) float64 {
	var sum float64
	var n int64
	for _, m := range s {
		if m.Name != name || m.Sum == nil || m.Count == nil || !hasLabels(m.Labels, labels) {
			continue
		}
		sum += *m.Sum
		n += *m.Count
	}
	return ratio(sum*1000, float64(n))
}

// minus returns s with before's readings subtracted series by series: the
// activity of one measured phase.
func (s scrape) minus(before scrape) scrape {
	type reading struct {
		value, sum float64
		count      int64
	}
	prev := map[string]reading{}
	for _, m := range before {
		var r reading
		if m.Value != nil {
			r.value = *m.Value
		}
		if m.Sum != nil {
			r.sum, r.count = *m.Sum, *m.Count
		}
		prev[m.Name+m.Labels] = r
	}
	out := make(scrape, len(s))
	copy(out, s)
	for i, m := range out {
		r := prev[m.Name+m.Labels]
		if m.Value != nil {
			v := *m.Value - r.value
			out[i].Value = &v
		}
		if m.Sum != nil && m.Count != nil {
			sum, n := *m.Sum-r.sum, *m.Count-r.count
			out[i].Sum, out[i].Count = &sum, &n
		}
	}
	return out
}

func hasLabels(have string, want []string) bool {
	for _, w := range want {
		if !strings.Contains(have, w) {
			return false
		}
	}
	return true
}
