// Package metrics is a small, dependency-free metrics subsystem:
// counters, gauges and histograms — plain and labelled — registered in
// a Registry that exposes everything in the Prometheus text format.
//
// The package exists so the serving layer (internal/server) can export
// the VM, code-cache and admission-control counters without pulling a
// client library into the module. The design keeps the hot path cheap:
// a Counter.Add is one atomic add; labelled series are resolved once
// and cached by the caller; snapshot-style sources (the code cache's
// sharded counters, the compile log's tier counts) register a callback
// instead of being pushed into, so exposition always reflects the live
// value with no double bookkeeping.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind is the exposition type of a metric family.
type Kind uint8

const (
	// KindCounter is a monotonically-increasing count.
	KindCounter Kind = iota
	// KindGauge is a value that can go up and down.
	KindGauge
	// KindHistogram is a bucketed distribution with sum and count.
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Sample is one series of a callback-backed family: label values (in
// the family's label-name order) plus the current value.
type Sample struct {
	Labels []string
	Value  float64
}

// DefBuckets are the default histogram bounds, in seconds — tuned for
// request latencies from sub-millisecond evals to multi-second
// benchmark runs.
var DefBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10,
}

// Registry holds metric families and renders them. The zero value is
// not usable; call NewRegistry.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

type family struct {
	name       string
	help       string
	kind       Kind
	labelNames []string
	buckets    []float64 // histograms only

	mu     sync.Mutex
	series map[string]metric // key: label values joined by \xff
	order  []string          // insertion order of series keys
	fn     func() []Sample   // callback families: overrides series
}

// metric is the value cell behind one series.
type metric interface {
	write(w io.Writer, fam *family, labelKey string)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// register creates or fetches a family, enforcing name/label/kind
// consistency. Registration happens at startup; inconsistent reuse is
// a programming error and panics.
func (r *Registry) register(name, help string, kind Kind, labelNames []string, buckets []float64) *family {
	mustValidName(name)
	for _, l := range labelNames {
		mustValidName(l)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || !equalStrings(f.labelNames, labelNames) {
			panic(fmt.Sprintf("metrics: %s re-registered with different kind or labels", name))
		}
		return f
	}
	f := &family{
		name: name, help: help, kind: kind,
		labelNames: labelNames, buckets: buckets,
		series: map[string]metric{},
	}
	r.families[name] = f
	return f
}

func mustValidName(name string) {
	if name == "" {
		panic("metrics: empty name")
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			panic(fmt.Sprintf("metrics: invalid name %q", name))
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// seriesFor fetches or creates the series cell for the given label
// values.
func (f *family) seriesFor(labelValues []string, mk func() metric) metric {
	if len(labelValues) != len(f.labelNames) {
		panic(fmt.Sprintf("metrics: %s wants %d label value(s), got %d",
			f.name, len(f.labelNames), len(labelValues)))
	}
	key := strings.Join(labelValues, "\xff")
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.series[key]; ok {
		return m
	}
	m := mk()
	f.series[key] = m
	f.order = append(f.order, key)
	return m
}

// ---------------------------------------------------------------------
// Counter

// Counter is a monotonically-increasing integer counter.
type Counter struct{ v atomic.Int64 }

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0 to keep the counter monotone; negative
// deltas are ignored).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) write(w io.Writer, fam *family, labelKey string) {
	fmt.Fprintf(w, "%s%s %d\n", fam.name, renderLabels(fam.labelNames, labelKey), c.Value())
}

// Counter registers (or fetches) an unlabelled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(name, help, KindCounter, nil, nil)
	return f.seriesFor(nil, func() metric { return &Counter{} }).(*Counter)
}

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// CounterVec registers a labelled counter family.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	return &CounterVec{r.register(name, help, KindCounter, labelNames, nil)}
}

// With returns the counter for the given label values (created on
// first use).
func (v *CounterVec) With(labelValues ...string) *Counter {
	return v.f.seriesFor(labelValues, func() metric { return &Counter{} }).(*Counter)
}

// ---------------------------------------------------------------------
// Gauge

// Gauge is an integer value that can move both ways.
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Inc adds 1; Dec subtracts 1.
func (g *Gauge) Inc() { g.v.Add(1) }
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

func (g *Gauge) write(w io.Writer, fam *family, labelKey string) {
	fmt.Fprintf(w, "%s%s %d\n", fam.name, renderLabels(fam.labelNames, labelKey), g.Value())
}

// Gauge registers (or fetches) an unlabelled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.register(name, help, KindGauge, nil, nil)
	return f.seriesFor(nil, func() metric { return &Gauge{} }).(*Gauge)
}

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// GaugeVec registers a labelled gauge family.
func (r *Registry) GaugeVec(name, help string, labelNames ...string) *GaugeVec {
	return &GaugeVec{r.register(name, help, KindGauge, labelNames, nil)}
}

// With returns the gauge for the given label values.
func (v *GaugeVec) With(labelValues ...string) *Gauge {
	return v.f.seriesFor(labelValues, func() metric { return &Gauge{} }).(*Gauge)
}

// ---------------------------------------------------------------------
// Histogram

// Histogram observes float64 values into cumulative buckets. The
// bucket counts, total count and sum are each atomics: an exposition
// racing an Observe may see the observation in some of them and not
// others (standard for lock-free histograms); every individual value
// is monotone.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is +Inf
	sum    atomicFloat
	count  atomic.Int64
}

// atomicFloat is a float64 stored as bits, updated by CAS.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

func (f *atomicFloat) load() float64 { return math.Float64frombits(f.bits.Load()) }

// Observe records v.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.sum.add(v)
	h.count.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

func (h *Histogram) write(w io.Writer, fam *family, labelKey string) {
	cum := int64(0)
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket%s %d\n", fam.name,
			renderLabelsExtra(fam.labelNames, labelKey, "le", formatFloat(b)), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket%s %d\n", fam.name,
		renderLabelsExtra(fam.labelNames, labelKey, "le", "+Inf"), cum)
	fmt.Fprintf(w, "%s_sum%s %s\n", fam.name, renderLabels(fam.labelNames, labelKey), formatFloat(h.sum.load()))
	fmt.Fprintf(w, "%s_count%s %d\n", fam.name, renderLabels(fam.labelNames, labelKey), h.count.Load())
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("metrics: histogram bounds must be strictly increasing")
		}
	}
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Histogram registers (or fetches) an unlabelled histogram. Nil bounds
// use DefBuckets.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	f := r.register(name, help, KindHistogram, nil, bounds)
	return f.seriesFor(nil, func() metric { return newHistogram(f.buckets) }).(*Histogram)
}

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// HistogramVec registers a labelled histogram family. Nil bounds use
// DefBuckets.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labelNames ...string) *HistogramVec {
	return &HistogramVec{r.register(name, help, KindHistogram, labelNames, bounds)}
}

// With returns the histogram for the given label values.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	return v.f.seriesFor(labelValues, func() metric { return newHistogram(v.f.buckets) }).(*Histogram)
}

// ---------------------------------------------------------------------
// Callback families

// RegisterFunc registers a family whose samples are produced by fn at
// exposition time — the bridge for sources that already keep their own
// counters (the code cache's sharded stats, the compile log's tier
// counts). kind must be KindCounter or KindGauge. fn must be safe to
// call from any goroutine and should return one Sample per series,
// label values in labelNames order.
func (r *Registry) RegisterFunc(name, help string, kind Kind, labelNames []string, fn func() []Sample) {
	if kind == KindHistogram {
		panic("metrics: RegisterFunc does not support histograms")
	}
	f := r.register(name, help, kind, labelNames, nil)
	f.mu.Lock()
	f.fn = fn
	f.mu.Unlock()
}

// GaugeFunc registers an unlabelled gauge computed at exposition time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.RegisterFunc(name, help, KindGauge, nil, func() []Sample {
		return []Sample{{Value: fn()}}
	})
}

// CounterFunc registers an unlabelled counter snapshot computed at
// exposition time (the underlying source must be monotone).
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.RegisterFunc(name, help, KindCounter, nil, func() []Sample {
		return []Sample{{Value: fn()}}
	})
}

// ---------------------------------------------------------------------
// Exposition

// WriteText renders every family in the Prometheus text exposition
// format (families sorted by name, series in creation order).
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.RLock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, n := range names {
		fams = append(fams, r.families[n])
	}
	r.mu.RUnlock()

	var b strings.Builder
	for _, f := range fams {
		b.Reset()
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		f.mu.Lock()
		if f.fn != nil {
			samples := f.fn()
			f.mu.Unlock()
			for _, s := range samples {
				if len(s.Labels) != len(f.labelNames) {
					continue // malformed sample: skip rather than corrupt output
				}
				fmt.Fprintf(&b, "%s%s %s\n", f.name,
					renderLabels(f.labelNames, strings.Join(s.Labels, "\xff")), formatFloat(s.Value))
			}
		} else {
			keys := append([]string(nil), f.order...)
			series := make([]metric, len(keys))
			for i, k := range keys {
				series[i] = f.series[k]
			}
			f.mu.Unlock()
			for i, k := range keys {
				series[i].write(&b, f, k)
			}
		}
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

// renderLabels renders {name="value",...} from the family's label
// names and a \xff-joined value key; empty for unlabelled series.
func renderLabels(names []string, key string) string {
	return renderLabelsExtra(names, key, "", "")
}

func renderLabelsExtra(names []string, key, extraName, extraValue string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var values []string
	if len(names) > 0 {
		values = strings.Split(key, "\xff")
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		v := ""
		if i < len(values) {
			v = values[i]
		}
		// %q escapes backslash, quote and newline — exactly the three
		// escapes the text format defines for label values.
		fmt.Fprintf(&b, "%s=%q", n, v)
	}
	if extraName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", extraName, extraValue)
	}
	b.WriteByte('}')
	return b.String()
}

func escapeHelp(h string) string {
	h = strings.ReplaceAll(h, `\`, `\\`)
	return strings.ReplaceAll(h, "\n", `\n`)
}

// formatFloat renders floats the way Prometheus expects: integral
// values without an exponent, +Inf for infinity.
func formatFloat(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
