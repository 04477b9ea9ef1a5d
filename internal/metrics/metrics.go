// Package metrics is the simulator-wide telemetry layer: a deterministic
// registry of counters, gauges, and fixed-bucket histograms, plus a
// structured span/event timeline (timeline.go) with JSON, Prometheus-text,
// and Chrome trace_event exporters (export.go).
//
// Two properties shape the design:
//
//   - Off is free. Every instrument method is a no-op on a nil receiver
//     and a nil *Registry hands out nil instruments, so instrumentation
//     sites update instruments unconditionally — the disabled cost is one
//     nil check, with no conditional plumbing at call sites.
//
//   - On is invisible. Instruments only record; they never draw from any
//     RNG, never schedule kernel events, and never change control flow,
//     so enabling telemetry cannot perturb a simulation. The machine's
//     determinism tests pin this: traces, stats, and corpus replays are
//     byte-identical with telemetry on or off, and two equal-seed runs
//     produce identical snapshots.
//
// Hot-path updates are allocation-free after registration: a counter
// bump is one add through a pointer, a histogram observation a short
// linear scan over its fixed bounds. Registration (Counter, Gauge,
// Histogram) allocates and is meant for construction time.
package metrics

import (
	"fmt"
	"sort"

	"weakorder/internal/stats"
)

// Counter is a monotonically increasing count. Methods are no-ops on a
// nil receiver.
type Counter struct {
	name string
	v    uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v++
	}
}

// Add adds d.
func (c *Counter) Add(d uint64) {
	if c != nil {
		c.v += d
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is a last-value-wins instrument that also tracks its maximum.
// Methods are no-ops on a nil receiver.
type Gauge struct {
	name string
	v    int64
	max  int64
}

// Set records v as the current value (and updates the running maximum).
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v = v
	if v > g.max {
		g.max = v
	}
}

// Add adjusts the current value by d.
func (g *Gauge) Add(d int64) {
	if g != nil {
		g.Set(g.v + d)
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Max returns the largest value ever set (0 on nil).
func (g *Gauge) Max() int64 {
	if g == nil {
		return 0
	}
	return g.max
}

// Histogram is a fixed-bucket histogram (stats.Hist) with a registry
// name. Methods are no-ops on a nil receiver.
type Histogram struct {
	name string
	h    *stats.Hist
}

// Observe records one observation.
func (h *Histogram) Observe(v uint64) {
	if h != nil {
		h.h.Observe(v)
	}
}

// Hist exposes the underlying histogram (nil on a nil receiver).
func (h *Histogram) Hist() *stats.Hist {
	if h == nil {
		return nil
	}
	return h.h
}

// Standard bucket layouts. Fixed layouts keep snapshots mergeable and
// byte-comparable across runs.
var (
	// LatencyBounds covers message/transaction latencies in cycles:
	// 1, 2, 4, …, 32768.
	LatencyBounds = stats.ExpBounds(1, 2, 16)
	// DepthBounds covers queue depths: 1, 2, 4, …, 512.
	DepthBounds = stats.ExpBounds(1, 2, 10)
	// HoldBounds covers hold/defer durations in cycles: 1, 2, 4, …, 65536.
	HoldBounds = stats.ExpBounds(1, 2, 17)
)

// Registry holds named instruments. A nil *Registry is the disabled
// registry: it hands out nil instruments and snapshots to nil.
// Registration is idempotent per name; a histogram re-registered with a
// different bucket layout panics (layouts are part of the metric's
// identity).
//
// A Registry and its instruments are not safe for concurrent use:
// registration and every update are unsynchronized, so goroutines
// running in parallel need a Registry each.
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter registers (or retrieves) the named counter; nil on a nil
// registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{name: name}
		r.counters[name] = c
	}
	return c
}

// Gauge registers (or retrieves) the named gauge; nil on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{name: name}
		r.gauges[name] = g
	}
	return g
}

// Histogram registers (or retrieves) the named histogram with the given
// bucket bounds; nil on a nil registry. Re-registration with a different
// layout panics.
func (r *Registry) Histogram(name string, bounds []uint64) *Histogram {
	if r == nil {
		return nil
	}
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{name: name, h: stats.NewHist(bounds)}
		r.hists[name] = h
		return h
	}
	if !h.h.SameLayout(stats.NewHist(bounds)) {
		panic(fmt.Sprintf("metrics: histogram %q re-registered with a different bucket layout", name))
	}
	return h
}

// Labeled encodes label pairs into an instrument name:
// Labeled("check.skips_total", "stage", "oracle") yields
// `check.skips_total{stage="oracle"}`. Keys are sorted and values are
// escaped per the Prometheus text exposition rules (backslash, quote,
// newline), so the encoding is unambiguous; the Prometheus exporter
// renders such instruments as labeled series of the base metric, while
// the JSON snapshot keeps the full encoded string as an ordinary map
// key. kv must be an even-length key/value list.
func Labeled(name string, kv ...string) string {
	if len(kv) == 0 || len(kv)%2 != 0 {
		panic(fmt.Sprintf("metrics: Labeled(%q) needs key-value pairs, got %d strings", name, len(kv)))
	}
	type pair struct{ k, v string }
	pairs := make([]pair, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		pairs = append(pairs, pair{kv[i], kv[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b []byte
	b = append(b, name...)
	b = append(b, '{')
	for i, p := range pairs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, p.k...)
		b = append(b, '=', '"')
		b = appendEscapedLabelValue(b, p.v)
		b = append(b, '"')
	}
	b = append(b, '}')
	return string(b)
}

// appendEscapedLabelValue escapes a label value for the text exposition
// format: backslash, double quote, and newline become \\, \", and \n.
func appendEscapedLabelValue(b []byte, v string) []byte {
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			b = append(b, '\\', '\\')
		case '"':
			b = append(b, '\\', '"')
		case '\n':
			b = append(b, '\\', 'n')
		default:
			b = append(b, v[i])
		}
	}
	return b
}

// SetCounter is a convenience for publishing an already-aggregated total
// (component stats harvested at end of run): it registers name and sets
// its value, overwriting any prior count.
func (r *Registry) SetCounter(name string, v uint64) {
	if r == nil {
		return
	}
	c := r.Counter(name)
	c.v = v
}

// Snapshot captures every instrument's current state. Maps are keyed by
// instrument name; JSON encoding sorts map keys, so snapshots of equal
// state are byte-identical.
type Snapshot struct {
	Counters   map[string]uint64      `json:"counters"`
	Gauges     map[string]GaugeValue  `json:"gauges"`
	Histograms map[string]*stats.Hist `json:"histograms"`
}

// GaugeValue is a gauge's exported state.
type GaugeValue struct {
	Value int64 `json:"value"`
	Max   int64 `json:"max"`
}

// Snapshot captures the registry (nil on a nil registry). Instrument
// state is deep-copied: later updates do not mutate the snapshot.
func (r *Registry) Snapshot() *Snapshot {
	if r == nil {
		return nil
	}
	s := &Snapshot{
		Counters:   make(map[string]uint64, len(r.counters)),
		Gauges:     make(map[string]GaugeValue, len(r.gauges)),
		Histograms: make(map[string]*stats.Hist, len(r.hists)),
	}
	for n, c := range r.counters {
		s.Counters[n] = c.v
	}
	for n, g := range r.gauges {
		s.Gauges[n] = GaugeValue{Value: g.v, Max: g.max}
	}
	for n, h := range r.hists {
		s.Histograms[n] = h.h.Clone()
	}
	return s
}

// Merge folds o into s: counters add, gauges keep the latest value but
// the running max, histograms bucket-merge (stats.Hist.Merge). Merging
// per-run snapshots yields campaign-level aggregates.
func (s *Snapshot) Merge(o *Snapshot) error {
	if o == nil {
		return nil
	}
	for n, v := range o.Counters {
		s.Counters[n] += v
	}
	for n, g := range o.Gauges {
		cur, ok := s.Gauges[n]
		if !ok {
			s.Gauges[n] = g
			continue
		}
		if g.Max > cur.Max {
			cur.Max = g.Max
		}
		cur.Value = g.Value
		s.Gauges[n] = cur
	}
	for n, h := range o.Histograms {
		cur, ok := s.Histograms[n]
		if !ok {
			s.Histograms[n] = h.Clone()
			continue
		}
		if err := cur.Merge(h); err != nil {
			return fmt.Errorf("metrics: %s: %w", n, err)
		}
	}
	return nil
}

// sortedKeys returns m's keys in sorted order (generic helper for the
// deterministic exporters).
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
