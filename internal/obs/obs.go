// Package obs is the dependency-free telemetry layer: lock-free
// latency histograms, a small metric registry with Prometheus
// text-format exposition, per-request stage traces with slow-request
// logging, and runtime/pprof debug endpoints.
//
// Design constraints, in order:
//
//  1. Near-zero hot-path overhead. Recording a latency is a bucket
//     computation plus a few uncontended atomic adds; a counter is a
//     sync/atomic.Uint64 in the subsystem that counts, read at scrape
//     time. Nothing on the record path locks, allocates, or formats
//     strings.
//  2. Nil-safety. Every record-side method works on a nil receiver as
//     a no-op, so instrumented subsystems never branch on "is
//     telemetry enabled" beyond passing a nil handle.
//  3. No dependencies. Only the standard library; exposition is
//     hand-rendered Prometheus text format (version 0.0.4), which is
//     a trivial line protocol.
//
// Exposition-side work (quantiles, rendering, label escaping) happens
// at scrape time, which is off the serving hot path by construction.
//
// The renderer groups samples by family (see Expo), so a collector is
// one pass over its state, emitting per object. A subsystem with a JSON
// metrics snapshot renders its collector from that snapshot: one
// source, two renderings.
package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// Collector emits a group of metric families at scrape time. The
// registry holds collectors rather than materialized series so gauges
// read live state (queue depths, cache occupancy, model versions)
// instead of a stale copy.
type Collector func(e *Expo)

// Registry is an ordered set of collectors rendered into one
// Prometheus exposition. Registration is rare (startup, attach);
// scraping takes the lock once per scrape.
type Registry struct {
	mu         sync.Mutex
	collectors []Collector
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Register appends a collector. Nil-safe (a nil registry drops it), so
// subsystems can offer registration unconditionally.
func (r *Registry) Register(c Collector) {
	if r == nil || c == nil {
		return
	}
	r.mu.Lock()
	r.collectors = append(r.collectors, c)
	r.mu.Unlock()
}

// WritePrometheus runs every registered collector in registration
// order and renders what they emitted as Prometheus text format
// (content type TextContentType), one block per family.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	e := &Expo{}
	r.collectInto(e)
	return e.writeTo(w)
}

func (r *Registry) collectInto(e *Expo) {
	r.mu.Lock()
	collectors := make([]Collector, len(r.collectors))
	copy(collectors, r.collectors)
	r.mu.Unlock()
	for _, c := range collectors {
		c(e)
	}
}

// Collector adapts the whole registry into a single collector, so one
// registry's families can be embedded in another's exposition (the
// debug listener embeds the serving registry alongside its runtime
// gauges this way).
func (r *Registry) Collector() Collector {
	return func(e *Expo) {
		if r != nil {
			r.collectInto(e)
		}
	}
}

// TextContentType is the Content-Type of the exposition format this
// package renders.
const TextContentType = "text/plain; version=0.0.4; charset=utf-8"

// Expo accumulates one Prometheus text exposition. It groups samples
// by family itself: each family is written once, in first-use order,
// as one contiguous block under a single HELP/TYPE header (the header
// of its first use), however the collectors interleave their calls. So
// a collector emits per object — every family of one route, replica or
// shard together — in one pass over the state it read.
type Expo struct {
	families []*family
	byName   map[string]*family
}

// family is one metric family's header and its samples, rendered.
type family struct {
	name, typ, help string
	b               strings.Builder
}

func (e *Expo) family(name, typ, help string) *family {
	if f, ok := e.byName[name]; ok {
		return f
	}
	if e.byName == nil {
		e.byName = make(map[string]*family)
	}
	f := &family{name: name, typ: typ, help: help}
	e.byName[name] = f
	e.families = append(e.families, f)
	return f
}

// writeTo renders every family, header first.
func (e *Expo) writeTo(w io.Writer) error {
	var b strings.Builder
	for _, f := range e.families {
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		b.WriteString(f.b.String())
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, `\"`+"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)
	return r.Replace(v)
}

// Labels renders a label set deterministically (sorted by key) into
// the `{k="v",...}` form, "" for an empty set. A collector emitting
// several families for one object typically renders the labels once
// and reuses the string.
func Labels(kv ...string) string {
	if len(kv) == 0 {
		return ""
	}
	type pair struct{ k, v string }
	pairs := make([]pair, 0, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		pairs = append(pairs, pair{kv[i], kv[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, p.k, escapeLabel(p.v))
	}
	b.WriteByte('}')
	return b.String()
}

// mergeLabels splices extra label pairs into an already-rendered label
// string (for summary quantile labels).
func mergeLabels(labels, extra string) string {
	if labels == "" {
		return "{" + extra + "}"
	}
	return labels[:len(labels)-1] + "," + extra + "}"
}

// sample appends one sample line to the family; name is the family's
// or a suffixed series of it (_sum, _count, _bucket).
func (f *family) sample(name, labels string, value float64) {
	f.b.WriteString(name)
	f.b.WriteString(labels)
	// %g keeps integers integral and avoids trailing zero noise.
	fmt.Fprintf(&f.b, " %g\n", value)
}

// Counter emits one counter sample into its family.
func (e *Expo) Counter(name, help, labels string, value float64) {
	e.family(name, "counter", help).sample(name, labels, value)
}

// Gauge emits one gauge sample into its family.
func (e *Expo) Gauge(name, help, labels string, value float64) {
	e.family(name, "gauge", help).sample(name, labels, value)
}

// Bool is a flag's gauge value: 1 for true, 0 for false.
func Bool(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// Summary emits a histogram snapshot as a Prometheus summary: p50,
// p90, p99 and max quantile series plus _sum and _count. Durations are
// rendered in seconds per Prometheus convention. Empty snapshots still
// emit _sum/_count (so scrapers see the series exists) but no
// quantiles.
func (e *Expo) Summary(name, help, labels string, s *HistogramSnapshot) {
	f := e.family(name, "summary", help)
	if s.Count > 0 {
		for _, q := range [...]struct {
			q float64
			l string
		}{{0.5, `quantile="0.5"`}, {0.9, `quantile="0.9"`}, {0.99, `quantile="0.99"`}, {1, `quantile="1"`}} {
			v := s.Quantile(q.q)
			if q.q == 1 {
				v = s.Max()
			}
			f.sample(name, mergeLabels(labels, q.l), v.Seconds())
		}
	}
	f.sample(name+"_sum", labels, float64(s.SumNS)/1e9)
	f.sample(name+"_count", labels, float64(s.Count))
}
