package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds named counters, gauges and histograms and renders them as
// a Prometheus-style text exposition or a machine-readable JSON dump.
// Registration is idempotent: asking for an existing name+labels returns
// the same instrument, so collectors can be re-run.
type Registry struct {
	// mu is a RWMutex so exposition and point reads (WriteProm, WriteJSON,
	// CounterValue) from a monitoring goroutine only contend with
	// registration, never with each other. Instrument updates (Inc, Set,
	// Observe) are lock-free atomics and never touch mu at all.
	mu       sync.RWMutex
	families map[string]*family
}

// family groups every labeled instance of one metric name.
type family struct {
	name, help, kind string
	instances        map[string]*instrument // keyed by rendered label set
}

// instrument is one (name, labels) series.
type instrument struct {
	labels string // rendered {k="v",...} or ""
	// counter/gauge state. Counters are integral, gauges are float bits.
	count int64
	gauge uint64
	// histogram state (nil for counters and gauges).
	hist *histState
}

// histState is lock-free: Observe is on every simulator's cycle path (cycle
// and IPC histograms), and with internal/exec running cells on all cores a
// mutex here serializes the whole fleet. Buckets and the sample count are
// plain atomic adds; the float sum is a CAS loop over its bit pattern.
// Readers see each field monotone and individually consistent; a reader
// racing an Observe may see n updated before sum (or vice versa), which the
// expositions tolerate — they are sampling a live system.
type histState struct {
	bounds  []float64 // ascending upper bounds, +Inf implicit; immutable
	buckets []int64   // len(bounds)+1, last is +Inf; atomic access
	sumBits uint64    // math.Float64bits of the running sum; CAS access
	n       int64     // atomic access
}

// addSum folds v into the running float sum with a compare-and-swap loop.
func (s *histState) addSum(v float64) {
	for {
		old := atomic.LoadUint64(&s.sumBits)
		next := math.Float64bits(math.Float64frombits(old) + v)
		if atomic.CompareAndSwapUint64(&s.sumBits, old, next) {
			return
		}
	}
}

// Counter is a monotonically increasing integer metric.
type Counter struct{ in *instrument }

// Inc adds one.
func (c *Counter) Inc() { atomic.AddInt64(&c.in.count, 1) }

// Add adds n (n must be >= 0 to keep the counter monotone).
func (c *Counter) Add(n int64) { atomic.AddInt64(&c.in.count, n) }

// Value reads the current count.
func (c *Counter) Value() int64 { return atomic.LoadInt64(&c.in.count) }

// Gauge is a settable float metric.
type Gauge struct{ in *instrument }

// Set stores v.
func (g *Gauge) Set(v float64) { atomic.StoreUint64(&g.in.gauge, math.Float64bits(v)) }

// Value reads the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(atomic.LoadUint64(&g.in.gauge)) }

// Histogram is a cumulative-bucket distribution metric.
type Histogram struct{ in *instrument }

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	s := h.in.hist
	idx := sort.SearchFloat64s(s.bounds, v) // first bound >= v
	atomic.AddInt64(&s.buckets[idx], 1)
	s.addSum(v)
	atomic.AddInt64(&s.n, 1)
}

// Count reports how many samples were observed.
func (h *Histogram) Count() int64 {
	return atomic.LoadInt64(&h.in.hist.n)
}

// Sum reports the total of all observed samples.
func (h *Histogram) Sum() float64 {
	return math.Float64frombits(atomic.LoadUint64(&h.in.hist.sumBits))
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// renderLabels builds the canonical {k="v",...} form from k,v pairs.
func renderLabels(labelPairs []string) (string, error) {
	if len(labelPairs) == 0 {
		return "", nil
	}
	if len(labelPairs)%2 != 0 {
		return "", fmt.Errorf("obs: odd label list %q (want key,value pairs)", labelPairs)
	}
	type kv struct{ k, v string }
	pairs := make([]kv, 0, len(labelPairs)/2)
	for i := 0; i < len(labelPairs); i += 2 {
		pairs = append(pairs, kv{labelPairs[i], labelPairs[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteByte('=')
		b.WriteString(strconv.Quote(p.v)) // fmt's %q, without its pooled printer
	}
	b.WriteByte('}')
	return b.String(), nil
}

// instrument finds or creates one series. kind mismatches on an existing
// name are an error: one name is one metric type.
func (r *Registry) instrument(name, help, kind string, bounds []float64, labelPairs []string) (*instrument, error) {
	labels, err := renderLabels(labelPairs)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	fam := r.families[name]
	if fam == nil {
		fam = &family{name: name, help: help, kind: kind, instances: map[string]*instrument{}}
		r.families[name] = fam
	}
	if fam.kind != kind {
		return nil, fmt.Errorf("obs: metric %q registered as %s, requested as %s", name, fam.kind, kind)
	}
	in := fam.instances[labels]
	if in == nil {
		in = &instrument{labels: labels}
		if kind == "histogram" {
			in.hist = &histState{
				bounds:  append([]float64(nil), bounds...),
				buckets: make([]int64, len(bounds)+1),
			}
		}
		fam.instances[labels] = in
	}
	return in, nil
}

// Counter registers (or finds) a counter. labelPairs is key,value,...
func (r *Registry) Counter(name, help string, labelPairs ...string) (*Counter, error) {
	in, err := r.instrument(name, help, "counter", nil, labelPairs)
	if err != nil {
		return nil, err
	}
	return &Counter{in: in}, nil
}

// MustCounter is Counter, panicking on registration errors (static names).
func (r *Registry) MustCounter(name, help string, labelPairs ...string) *Counter {
	c, err := r.Counter(name, help, labelPairs...)
	if err != nil {
		panic(err)
	}
	return c
}

// Gauge registers (or finds) a gauge.
func (r *Registry) Gauge(name, help string, labelPairs ...string) (*Gauge, error) {
	in, err := r.instrument(name, help, "gauge", nil, labelPairs)
	if err != nil {
		return nil, err
	}
	return &Gauge{in: in}, nil
}

// MustGauge is Gauge, panicking on registration errors.
func (r *Registry) MustGauge(name, help string, labelPairs ...string) *Gauge {
	g, err := r.Gauge(name, help, labelPairs...)
	if err != nil {
		panic(err)
	}
	return g
}

// Histogram registers (or finds) a histogram with the given ascending
// bucket upper bounds (+Inf is implicit).
func (r *Registry) Histogram(name, help string, bounds []float64, labelPairs ...string) (*Histogram, error) {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			return nil, fmt.Errorf("obs: histogram %q bounds not ascending: %v", name, bounds)
		}
	}
	in, err := r.instrument(name, help, "histogram", bounds, labelPairs)
	if err != nil {
		return nil, err
	}
	return &Histogram{in: in}, nil
}

// MustHistogram is Histogram, panicking on registration errors.
func (r *Registry) MustHistogram(name, help string, bounds []float64, labelPairs ...string) *Histogram {
	h, err := r.Histogram(name, help, bounds, labelPairs...)
	if err != nil {
		panic(err)
	}
	return h
}

// CounterValue reads a counter by name and labels; ok is false when the
// series does not exist.
func (r *Registry) CounterValue(name string, labelPairs ...string) (v int64, ok bool) {
	labels, err := renderLabels(labelPairs)
	if err != nil {
		return 0, false
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	fam := r.families[name]
	if fam == nil || fam.kind != "counter" {
		return 0, false
	}
	in := fam.instances[labels]
	if in == nil {
		return 0, false
	}
	return atomic.LoadInt64(&in.count), true
}

// famSnapshot pairs a family with its instance list, both captured under
// the registry read lock so expositions cannot race concurrent
// registration (the instance maps are only written under the write lock).
type famSnapshot struct {
	fam *family
	ins []*instrument
}

// sortedFamilies snapshots families in name order and each family's series
// in label order.
func (r *Registry) sortedFamilies() []famSnapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	fams := make([]famSnapshot, 0, len(r.families))
	for _, f := range r.families {
		ins := make([]*instrument, 0, len(f.instances))
		for _, in := range f.instances {
			ins = append(ins, in)
		}
		sort.Slice(ins, func(i, j int) bool { return ins[i].labels < ins[j].labels })
		fams = append(fams, famSnapshot{fam: f, ins: ins})
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].fam.name < fams[j].fam.name })
	return fams
}

// formatBound renders a bucket upper bound the Prometheus way.
func formatBound(b float64) string {
	if math.IsInf(b, 1) {
		return "+Inf"
	}
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%f", b), "0"), ".")
}

// mergeLabels splices extra into an existing rendered label set.
func mergeLabels(labels, extra string) string {
	if labels == "" {
		return "{" + extra + "}"
	}
	return labels[:len(labels)-1] + "," + extra + "}"
}

// WriteProm writes the Prometheus text exposition (HELP/TYPE comments plus
// one line per series; histograms expand to _bucket/_sum/_count).
func (r *Registry) WriteProm(w io.Writer) error {
	for _, snap := range r.sortedFamilies() {
		fam := snap.fam
		if fam.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", fam.name, fam.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", fam.name, fam.kind); err != nil {
			return err
		}
		for _, in := range snap.ins {
			switch fam.kind {
			case "counter":
				if _, err := fmt.Fprintf(w, "%s%s %d\n", fam.name, in.labels, atomic.LoadInt64(&in.count)); err != nil {
					return err
				}
			case "gauge":
				if _, err := fmt.Fprintf(w, "%s%s %g\n", fam.name, in.labels, math.Float64frombits(atomic.LoadUint64(&in.gauge))); err != nil {
					return err
				}
			case "histogram":
				s := in.hist
				var cum int64
				for i := range s.buckets {
					cum += atomic.LoadInt64(&s.buckets[i])
					bound := math.Inf(1)
					if i < len(s.bounds) {
						bound = s.bounds[i]
					}
					if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
						fam.name, mergeLabels(in.labels, fmt.Sprintf("le=%q", formatBound(bound))), cum); err != nil {
						return err
					}
				}
				if _, err := fmt.Fprintf(w, "%s_sum%s %g\n%s_count%s %d\n",
					fam.name, in.labels, math.Float64frombits(atomic.LoadUint64(&s.sumBits)),
					fam.name, in.labels, atomic.LoadInt64(&s.n)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// jsonMetric is one series in the JSON dump.
type jsonMetric struct {
	Name   string `json:"name"`
	Labels string `json:"labels,omitempty"`
	Kind   string `json:"kind"`
	Help   string `json:"help,omitempty"`
	// Value holds counter (integer) and gauge (float) readings.
	Value *float64 `json:"value,omitempty"`
	// Histogram payload.
	Buckets []jsonBucket `json:"buckets,omitempty"`
	Sum     *float64     `json:"sum,omitempty"`
	Count   *int64       `json:"count,omitempty"`
}

type jsonBucket struct {
	Le    string `json:"le"`
	Count int64  `json:"count"`
}

// WriteJSON writes the machine-readable dump: a JSON array of series.
func (r *Registry) WriteJSON(w io.Writer) error {
	var out []jsonMetric
	for _, snap := range r.sortedFamilies() {
		fam := snap.fam
		for _, in := range snap.ins {
			m := jsonMetric{Name: fam.name, Labels: in.labels, Kind: fam.kind, Help: fam.help}
			switch fam.kind {
			case "counter":
				v := float64(atomic.LoadInt64(&in.count))
				m.Value = &v
			case "gauge":
				v := math.Float64frombits(atomic.LoadUint64(&in.gauge))
				m.Value = &v
			case "histogram":
				s := in.hist
				var cum int64
				for i := range s.buckets {
					cum += atomic.LoadInt64(&s.buckets[i])
					bound := math.Inf(1)
					if i < len(s.bounds) {
						bound = s.bounds[i]
					}
					m.Buckets = append(m.Buckets, jsonBucket{Le: formatBound(bound), Count: cum})
				}
				sum := math.Float64frombits(atomic.LoadUint64(&s.sumBits))
				n := atomic.LoadInt64(&s.n)
				m.Sum, m.Count = &sum, &n
			}
			out = append(out, m)
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
