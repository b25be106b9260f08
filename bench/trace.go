package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/features"
	"repro/internal/plan"
	"repro/internal/serve"
	"repro/internal/stream"
)

// span is one timed interval of one request. Spans of a request share
// Req; Parent is the ID of the span that caused this one (0 for a
// request's root and for the root of its replay). Times are
// nanoseconds since the run's epoch.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// traceEpoch anchors span times; set once before any span is recorded.
var traceEpoch = time.Now()

// spanBuf is one goroutine's spans, kept in memory until the run ends.
type spanBuf []span

var lastSpanID atomic.Uint64

func (b *spanBuf) add(parent, req uint64, name string, start, end time.Time) uint64 {
	id := lastSpanID.Add(1)
	*b = append(*b, span{
		ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(traceEpoch)), End: int64(end.Sub(traceEpoch)),
	})
	return id
}

// timed runs fn and records it as a child of parent.
func (b *spanBuf) timed(parent, req uint64, name string, fn func()) uint64 {
	start := time.Now()
	fn()
	return b.add(parent, req, name, start, time.Now())
}

// selfTimes returns each span's duration minus its children's. The
// benchmark records spans from outside the program, so a child that
// looks inside a call (features and core under serve.*) is a replay
// made after that call returned: children are tied to parents by ID,
// not by interval, and the subtraction is on durations. A child total
// larger than its parent (possible only for such replays) floors at 0.
func selfTimes(spans []span) map[uint64]time.Duration {
	self := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] += s.dur()
		if s.Parent != 0 {
			self[s.Parent] -= s.dur()
		}
	}
	for k, v := range self {
		if v < 0 {
			self[k] = 0
		}
	}
	return self
}

// replayEvery is how often the traced loop replays a request through
// the layers.
const replayEvery = 64

const replayRoot = "replay"

// replayer re-runs one request's bytes through the layers in the order
// they block the reply, calling each layer's public function from here:
// the program under test carries no spans of its own yet.
type replayer struct {
	spec     *workloadSpec
	rootName string
	pool     *pool
	m        *model
	svc      *serve.Service // the (first) replica's service
	handler  http.Handler
	path     string
	ring     *cluster.Ring // fleet_mixed: the router's placement
}

func newReplayer(spec *workloadSpec, tgt *target, p *pool, m *model) *replayer {
	rp := &replayer{spec: spec, pool: p, m: m, svc: tgt.replicas[0].svc}
	rp.handler = rp.svc.Handler()
	switch spec.name {
	case "batch_cold":
		rp.rootName, rp.path = "http.estimate_batch", "/estimate/batch"
	case "http_loop":
		rp.rootName, rp.path = "http.estimate", "/estimate"
	case "fleet_mixed":
		rp.rootName = "router.stream_estimate"
		addrs := make([]string, len(tgt.replicas))
		for i, r := range tgt.replicas {
			addrs[i] = r.httpAddr
		}
		rp.ring = cluster.NewRing(addrs, 0)
	default:
		rp.rootName = "stream.estimate"
	}
	return rp
}

// replay records the layer spans of request r under a replay root that
// shares the request's ID with the root span the loop recorded.
func (rp *replayer) replay(b *spanBuf, req uint64, r *request) {
	start := time.Now()
	at := len(*b)
	root := b.add(0, req, replayRoot, start, start)
	if rp.path != "" {
		rp.replayHTTP(b, root, req, r)
	} else {
		if rp.ring != nil {
			// Client to router: one more frame each way, and the ring.
			rp.frameHop(b, root, req, stream.FrameEstimate, r.body)
			b.timed(root, req, "cluster.ring_pick", func() { rp.ring.Pick(r.schema) })
		}
		resp := rp.replayStream(b, root, req, r)
		if rp.ring != nil {
			rp.frameHop(b, root, req, stream.FrameResponse, resp)
		}
	}
	(*b)[at].End = int64(time.Since(traceEpoch))
}

// frameHop encodes body into a frame and reads it back, as the two ends
// of one connection do.
func (rp *replayer) frameHop(b *spanBuf, parent, req uint64, typ byte, body []byte) []byte {
	var wire []byte
	b.timed(parent, req, "stream.frame_encode", func() {
		wire, _ = stream.AppendFrame(nil, &stream.Frame{Type: typ, Seq: req, Body: body}) // bodies are far below the frame limit
	})
	var f *stream.Frame
	b.timed(parent, req, "stream.frame_decode", func() {
		f, _ = stream.ReadFrame(bufio.NewReader(bytes.NewReader(wire))) // wire was produced one line up
	})
	if f == nil {
		return nil
	}
	return f.Body
}

// replayStream walks a replica's stream path: frame in, envelope and
// plan decode, a coalesced dispatch of one, response encode, frame out.
func (rp *replayer) replayStream(b *spanBuf, parent, req uint64, r *request) []byte {
	body := rp.frameHop(b, parent, req, stream.FrameEstimate, r.body)
	var sreq stream.Request
	b.timed(parent, req, "stream.request_decode", func() { _ = stream.DecodeRequest(body, &sreq) }) // a body the server just accepted
	var p *plan.Plan
	b.timed(parent, req, "plan.decode", func() {
		if p, _ = plan.DecodeJSON(sreq.Plan); p != nil {
			_ = p.Validate()
		}
	})
	if p == nil {
		return nil
	}
	var resps []*serve.Response
	est := b.timed(parent, req, "serve.estimate_stream", func() {
		resps, _ = rp.svc.EstimateStream(context.Background(), serve.BatchRequest{
			Schema: sreq.Schema, Resources: []plan.ResourceKind{plan.CPUTime}, Plans: []*plan.Plan{p},
		}, 0)
	})
	if len(resps) != 1 {
		return nil
	}
	rp.replayModel(b, est, req, []*plan.Plan{p}, resps[0].CacheMisses > 0)
	var out []byte
	b.timed(parent, req, "serve.encode", func() { out, _ = serve.MarshalWire(resps[0]) })
	return rp.frameHop(b, parent, req, stream.FrameResponse, out)
}

// replayHTTP runs the handler on the request's bytes with no socket,
// then replays what the handler did inside as its children.
func (rp *replayer) replayHTTP(b *spanBuf, parent, req uint64, r *request) {
	rec := httptest.NewRecorder()
	h := b.timed(parent, req, "serve.handler", func() {
		rp.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, rp.path, bytes.NewReader(r.body)))
	})
	plans := make([]*plan.Plan, 0, len(r.plans))
	b.timed(h, req, "plan.decode", func() {
		for _, pi := range r.plans {
			if p, err := plan.DecodeJSON(rp.pool.wire[pi]); err == nil {
				plans = append(plans, p)
			}
		}
	})
	misses, _, ok := scanFloats(rec.Body.Bytes(), `"cache_misses":`, 1)
	rp.replayModel(b, h, req, plans, ok && misses[0] > 0)
	var decoded any = new(serve.Response)
	if len(r.plans) > 1 {
		decoded = new(serve.BatchResponse)
	}
	if json.Unmarshal(rec.Body.Bytes(), decoded) == nil {
		b.timed(h, req, "serve.encode", func() { _, _ = serve.MarshalWire(decoded) }) // re-encoding what the handler just encoded
	}
}

// replayModel records what a serve call does below the cache: feature
// extraction always (the cache is keyed on the vector, so hits pay it
// too) and the slab walk when the call reported misses — over all of
// the plans' operators, an upper bound when only some missed.
func (rp *replayer) replayModel(b *spanBuf, parent, req uint64, plans []*plan.Plan, missed bool) {
	var vecs []features.Vector
	b.timed(parent, req, "features.extract", func() { vecs, _ = features.ExtractPlans(plans, rp.m.set.Mode) })
	if !missed {
		return
	}
	kinds := opKinds(plans, len(vecs))
	b.timed(parent, req, "core.predict", func() { rp.m.set.PredictAllBatch(kinds, vecs, nil) })
}

func opKinds(plans []*plan.Plan, n int) []plan.OpKind {
	kinds := make([]plan.OpKind, 0, n)
	for _, p := range plans {
		p.Walk(func(nd *plan.Node) { kinds = append(kinds, nd.Kind) })
	}
	return kinds
}

// reconciliation is the one-in-flight probe's verdict on how much of a
// request's wall clock the replayed layers explain.
type reconciliation struct {
	rootMedianUS float64
	accountedUS  float64            // median per request of the time inside any layer function
	layerSelfUS  map[string]float64 // median self time per span name
	spans        []span
	attempted    int64
	failed       int64
}

// reconcile sends n requests one at a time through cl, replays each,
// and compares the root spans with what the replays add up to. What is
// left over is time no layer function was running: sockets, the
// scheduler, and — on the stream transport — the coalescer's wait.
func reconcile(rp *replayer, cl client, p *pool, n int, all bool) reconciliation {
	var b spanBuf
	var rec reconciliation
	var roots []float64
	for i := 0; i < n; i++ {
		r := p.pick(int64(i))
		t0 := time.Now()
		resp, err := cl.estimate(r)
		t1 := time.Now()
		rec.attempted++
		if err != nil || !p.checkResponse(resp, r, all) {
			rec.failed++
			continue
		}
		b.add(0, uint64(i), rp.rootName, t0, t1)
		roots = append(roots, micros(t1.Sub(t0)))
		rp.replay(&b, uint64(i), p.pick(int64(i)+p.halfCycle()))
	}
	rec.spans = b
	rec.rootMedianUS = median(roots)

	// Within a request a layer that runs twice (the frame codec) is
	// summed; across requests each layer's figure is the median.
	self := selfTimes(b)
	byLayer := make(map[string]map[uint64]float64)
	accounted := make(map[uint64]float64)
	for _, s := range b {
		if s.Parent == 0 {
			continue
		}
		if byLayer[s.Name] == nil {
			byLayer[s.Name] = make(map[uint64]float64)
		}
		us := micros(self[s.ID])
		byLayer[s.Name][s.Req] += us
		accounted[s.Req] += us
	}
	rec.layerSelfUS = make(map[string]float64, len(byLayer))
	for name, byReq := range byLayer {
		rec.layerSelfUS[name] = median(mapValues(byReq))
	}
	rec.accountedUS = median(mapValues(accounted))
	return rec
}

func mapValues(m map[uint64]float64) []float64 {
	vals := make([]float64, 0, len(m))
	for _, v := range m {
		vals = append(vals, v)
	}
	return vals
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// traceFile is what a traced run writes to bench/out at exit.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	// RootSpans counts every request's root span recorded in memory;
	// Spans holds the roots of replayed requests and their replays,
	// from the traced loop and then from the reconciliation probe.
	RootSpans     int                `json:"root_spans"`
	ReplayEvery   int                `json:"replay_every"`
	LayerSelfUS   map[string]float64 `json:"reconcile_layer_self_us"`
	RootMedianUS  float64            `json:"reconcile_root_median_us"`
	UnaccountedUS float64            `json:"reconcile_unaccounted_us"`
	Spans         []span             `json:"loop_spans"`
	Reconcile     []span             `json:"reconcile_spans"`
}

func writeTrace(path string, tf *traceFile) error {
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// replayedOnly keeps the spans of requests that were replayed, dropping
// the lone root spans of the other 63 in 64.
func replayedOnly(spans []span) (kept []span, roots int) {
	replayed := make(map[uint64]bool)
	for _, s := range spans {
		if s.Name == replayRoot {
			replayed[s.Req] = true
		}
	}
	for _, s := range spans {
		if s.Parent == 0 && s.Name != replayRoot {
			roots++
		}
		if replayed[s.Req] {
			kept = append(kept, s)
		}
	}
	return kept, roots
}
