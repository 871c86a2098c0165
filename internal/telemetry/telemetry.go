// Package telemetry is a zero-dependency metrics registry: counters,
// gauges, and bounded-bucket histograms with streaming quantiles,
// rendered in the Prometheus text exposition format.
//
// Design constraints, in order:
//
//  1. Disabled must be free. Every constructor on a nil *Registry
//     returns a nil metric handle, and every method on a nil handle is
//     a no-op that performs zero allocations. Call sites therefore
//     never branch on "is telemetry on" — they just call Observe/Inc
//     unconditionally, and the nil-receiver path compiles down to a
//     predicted-not-taken branch.
//  2. Hot-path updates are lock-cheap. Histograms shard their bucket
//     counters across independently allocated atomic arrays so that
//     concurrent Observe calls from many goroutines do not contend on
//     one cache line; counters and gauges are single atomics.
//  3. Output is deterministic. WritePrometheus sorts families and
//     label sets, so two scrapes of the same state are byte-identical.
//
// Labeled families (the *Vec types) cap their child cardinality: once
// a vec holds maxVecChildren distinct label sets, further label values
// collapse into a single child whose label values are all "other".
// This bounds scrape size no matter how many tenants a server hosts.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// maxVecChildren bounds the number of distinct label sets a single
// labeled family will track before collapsing into the "other" child.
const maxVecChildren = 64

// overflowLabel is the label value used for every label of the
// overflow child once a vec is at capacity.
const overflowLabel = "other"

// Registry holds metric families and renders them as Prometheus text.
// The zero value is not usable; call NewRegistry. A nil *Registry is
// the disabled state: all constructors return nil handles.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	names    []string // sorted lazily at render time
	hooks    []func()
}

// family is one named metric family: exactly one of the metric
// pointers is non-nil.
type family struct {
	name string
	help string
	typ  string // "counter", "gauge", "histogram"

	counter *Counter
	gauge   *Gauge
	hist    *Histogram

	counterVec *CounterVec
	gaugeVec   *GaugeVec
	histVec    *HistogramVec
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// OnScrape registers fn to run at the start of every WritePrometheus
// call, before rendering. Use it to sample point-in-time gauges (queue
// depth, WAL bytes, replication lag) from their authoritative sources
// instead of pushing every change. No-op on a nil registry.
func (r *Registry) OnScrape(fn func()) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	r.hooks = append(r.hooks, fn)
	r.mu.Unlock()
}

// register adds a family, or returns the existing one with the same
// name. Registering the same name with a different shape panics: that
// is a programming error, not a runtime condition.
func (r *Registry) register(name, help, typ string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.typ != typ {
			panic(fmt.Sprintf("telemetry: %s re-registered as %s (was %s)", name, typ, f.typ))
		}
		return f
	}
	f := &family{name: name, help: help, typ: typ}
	r.families[name] = f
	r.names = nil
	return f
}

// Counter returns the monotonically increasing counter named name,
// creating it on first use. Nil-safe.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	f := r.register(name, help, "counter")
	if f.counter == nil {
		f.counter = &Counter{}
	}
	return f.counter
}

// Gauge returns the gauge named name, creating it on first use.
// Nil-safe.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	f := r.register(name, help, "gauge")
	if f.gauge == nil {
		f.gauge = &Gauge{}
	}
	return f.gauge
}

// Histogram returns the histogram named name with the given bucket
// upper bounds (ascending; +Inf is implicit), creating it on first
// use. Nil-safe.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	f := r.register(name, help, "histogram")
	if f.hist == nil {
		f.hist = newHistogram(bounds)
	}
	return f.hist
}

// CounterVec returns the labeled counter family named name. Nil-safe.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if r == nil {
		return nil
	}
	f := r.register(name, help, "counter")
	if f.counterVec == nil {
		f.counterVec = &CounterVec{newLabelled[Counter](labels)}
	}
	return f.counterVec
}

// GaugeVec returns the labeled gauge family named name. Nil-safe.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	f := r.register(name, help, "gauge")
	if f.gaugeVec == nil {
		f.gaugeVec = &GaugeVec{newLabelled[Gauge](labels)}
	}
	return f.gaugeVec
}

// HistogramVec returns the labeled histogram family named name with
// the given bucket bounds. Nil-safe.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	f := r.register(name, help, "histogram")
	if f.histVec == nil {
		f.histVec = &HistogramVec{newLabelled[Histogram](labels), bounds}
	}
	return f.histVec
}

// Counter is a monotonically increasing uint64. All methods are safe
// on a nil receiver.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 that can go up and down, stored as atomic bits.
// All methods are safe on a nil receiver.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add increments the gauge by d (CAS loop; gauges are low-frequency).
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// labelled is the child table behind every *Vec type: label values →
// child metric, capped at maxVecChildren.
type labelled[M any] struct {
	labels   []string
	overflow string // key of the child whose label values are all "other"
	mu       sync.RWMutex
	children map[string]*M
}

// vecSep joins label values into a child key; it cannot appear in
// well-formed label values.
const vecSep = "\x1f"

func newLabelled[M any](labels []string) labelled[M] {
	other := make([]string, len(labels))
	for i := range other {
		other[i] = overflowLabel
	}
	return labelled[M]{labels: labels, overflow: strings.Join(other, vecSep), children: make(map[string]*M)}
}

// with returns the child for the given label values, creating it with
// mk if the family is under its cardinality cap and collapsing to the
// "other" child otherwise.
func (v *labelled[M]) with(values []string, mk func() *M) *M {
	key := strings.Join(values, vecSep)
	v.mu.RLock()
	m := v.children[key]
	v.mu.RUnlock()
	if m != nil {
		return m
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if m = v.children[key]; m != nil {
		return m
	}
	if len(v.children) >= maxVecChildren {
		key = v.overflow
		if m = v.children[key]; m != nil {
			return m
		}
	}
	m = mk()
	v.children[key] = m
	return m
}

// each calls fn for every child in label-value order with its rendered
// label pairs.
func (v *labelled[M]) each(fn func(labels string, m *M)) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	keys := make([]string, 0, len(v.children))
	for k := range v.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		fn(labelString(v.labels, strings.Split(key, vecSep)), v.children[key])
	}
}

// CounterVec is a counter family keyed by label values.
type CounterVec struct{ labelled[Counter] }

// With returns the child counter for the given label values, creating
// it if the vec is under its cardinality cap and collapsing to the
// "other" child otherwise. Nil-safe.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	return v.with(values, func() *Counter { return &Counter{} })
}

// GaugeVec is a gauge family keyed by label values.
type GaugeVec struct{ labelled[Gauge] }

// With returns the child gauge for the given label values. Nil-safe.
func (v *GaugeVec) With(values ...string) *Gauge {
	if v == nil {
		return nil
	}
	return v.with(values, func() *Gauge { return &Gauge{} })
}

// Reset drops every child, so the next scrape reflects only label sets
// re-populated since. Used by scrape hooks that rebuild point-in-time
// gauges (e.g. replication lag) from an authoritative map. Nil-safe.
func (v *GaugeVec) Reset() {
	if v == nil {
		return
	}
	v.mu.Lock()
	clear(v.children)
	v.mu.Unlock()
}

// HistogramVec is a histogram family keyed by label values; every
// child shares the vec's bucket bounds.
type HistogramVec struct {
	labelled[Histogram]
	bounds []float64
}

// With returns the child histogram for the given label values.
// Nil-safe.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil {
		return nil
	}
	return v.with(values, func() *Histogram { return newHistogram(v.bounds) })
}

// WritePrometheus runs scrape hooks, then renders every family in the
// Prometheus text exposition format, families sorted by name and
// children sorted by label values. Nil-safe (writes nothing).
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	hooks := make([]func(), len(r.hooks))
	copy(hooks, r.hooks)
	r.mu.Unlock()
	for _, fn := range hooks {
		fn()
	}

	r.mu.Lock()
	if r.names == nil {
		r.names = make([]string, 0, len(r.families))
		for name := range r.families {
			r.names = append(r.names, name)
		}
		sort.Strings(r.names)
	}
	names := r.names
	fams := make([]*family, len(names))
	for i, name := range names {
		fams[i] = r.families[name]
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		f.write(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func (f *family) write(b *strings.Builder) {
	fmt.Fprintf(b, "# HELP %s %s\n", f.name, f.help)
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.typ)
	switch {
	case f.counter != nil:
		writeSample(b, f.name, "", strconv.FormatUint(f.counter.Value(), 10))
	case f.gauge != nil:
		writeSample(b, f.name, "", formatFloat(f.gauge.Value()))
	case f.hist != nil:
		writeHistogram(b, f.name, "", f.hist)
	case f.counterVec != nil:
		f.counterVec.each(func(labels string, c *Counter) {
			writeSample(b, f.name, labels, strconv.FormatUint(c.Value(), 10))
		})
	case f.gaugeVec != nil:
		f.gaugeVec.each(func(labels string, g *Gauge) {
			writeSample(b, f.name, labels, formatFloat(g.Value()))
		})
	case f.histVec != nil:
		f.histVec.each(func(labels string, h *Histogram) {
			writeHistogram(b, f.name, labels, h)
		})
	}
}

// writeSample emits `name{labels} value` (labels may be empty).
func writeSample(b *strings.Builder, name, labels, value string) {
	b.WriteString(name)
	if labels != "" {
		b.WriteByte('{')
		b.WriteString(labels)
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(value)
	b.WriteByte('\n')
}

// writeHistogram emits the _bucket/_sum/_count triplet for one
// histogram child. extraLabels is the rendered label pairs without the
// le label, or "".
func writeHistogram(b *strings.Builder, name, extraLabels string, h *Histogram) {
	counts, count, sum := h.snapshot()
	cum := uint64(0)
	for i, c := range counts {
		cum += c
		le := "+Inf"
		if i < len(h.bounds) {
			le = formatFloat(h.bounds[i])
		}
		labels := `le="` + le + `"`
		if extraLabels != "" {
			labels = extraLabels + "," + labels
		}
		writeSample(b, name+"_bucket", labels, strconv.FormatUint(cum, 10))
	}
	writeSample(b, name+"_sum", extraLabels, formatFloat(sum))
	writeSample(b, name+"_count", extraLabels, strconv.FormatUint(count, 10))
}

// labelString renders `k1="v1",k2="v2"` with escaped values.
func labelString(names, values []string) string {
	var b strings.Builder
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		v := ""
		if i < len(values) {
			v = values[i]
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(v))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
