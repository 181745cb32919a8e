// Command perfbench is the repository benchmark. It boots the real HTTP
// server in process, drives it from one load-generating process with one of
// two named workloads, checks every answer, and prints one JSON result
// line:
//
//	perfbench -workload simulate-cold|campaign -seed N -seconds S -trace 0|1
//
// With -trace 0 the result carries the end-to-end metrics, measured on an
// untraced server. With -trace 1 it carries the per-layer metrics: the
// server's own stage histograms and counters, plus a replay of every served
// item through each engine layer's public functions, timed under spans
// whose dump (with per-layer self time) is written under
// <root>/.bench_build/perfbench/. README.md documents every workload and
// metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics is the result line's metric map.
type metrics map[string]metric

// set records one metric.
func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// result is the last line the benchmark prints.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// options are the parsed command-line flags.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	root     string
	// out is the directory for journals and span dumps.
	out string
}

// runWorkload executes one workload and fills res. A returned error aborts
// the run without a result line (setup failure or an invalid open loop).
type runWorkload func(o options, env envStamp, res *result) error

var workloads = map[string]runWorkload{
	"simulate-cold": runSimulateCold,
	"campaign":      runCampaign,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "input seed; the same seed gives the same inputs")
	fs.IntVar(&o.seconds, "seconds", 35, "measurement window in seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	fs.StringVar(&o.root, "root", ".", "repository root (journals and span dumps go under <root>/.bench_build/perfbench)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[o.workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %s)\n", o.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	o.trace = trace == 1
	o.out = filepath.Join(o.root, ".bench_build", "perfbench")
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}

	env := stampEnv(o)
	line, _ := json.Marshal(map[string]any{"env": env})
	fmt.Fprintln(stdout, string(line))

	res := result{Metrics: metrics{}}
	if err := w(o, env, &res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	res.Correct = res.Failed == 0
	if res.Attempted < 1 {
		fmt.Fprintf(stderr, "perfbench: %s attempted no work\n", o.workload)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	if !res.Correct {
		fmt.Fprintf(stderr, "perfbench: %s: %d of %d items failed their checks\n", o.workload, res.Failed, res.Attempted)
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
