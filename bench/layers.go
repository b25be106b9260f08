package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/feedback"
	"repro/internal/plan"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/stream"
)

// probeEnv is the idle infrastructure the isolated layer probes call
// into: services on their own registry (so nothing they do reaches the
// workload's replica), one of them behind real listeners and a
// cache-less router for the one-in-flight round trips.
type probeEnv struct {
	cfg   config
	m     *model
	reg   *serve.Registry
	loop  *feedback.Loop
	warm  *replica       // default options, feedback loop attached
	cold  *serve.Service // prediction cache disabled
	quiet *serve.Service // telemetry disabled
	rt    *cluster.Router

	plans  []*plan.Plan // the first probePlans plans of the workload's pool
	wire   [][]byte
	single [][]byte // one cpu estimate body per plan
	ops    int
}

const probePlans = 64

func newProbeEnv(cfg config, m *model, p *pool, dir string) (*probeEnv, error) {
	e := &probeEnv{cfg: cfg, m: m, reg: m.registry(), plans: p.plans[:probePlans], wire: p.wire[:probePlans]}
	e.ops = countOperators(e.plans)
	for _, w := range e.wire {
		body, err := singleBody(schemaName, w)
		if err != nil {
			return nil, err
		}
		e.single = append(e.single, body)
	}
	var err error
	if e.loop, err = feedback.New(feedback.Options{Dir: filepath.Join(dir, "probe-feedback"), Publisher: e.reg}); err != nil {
		return nil, err
	}
	if e.warm, err = startReplica(e.reg, serve.Options{Feedback: e.loop}); err != nil {
		e.close()
		return nil, err
	}
	e.cold = serve.New(serve.Options{Registry: e.reg, CacheEntries: -1})
	e.quiet = serve.New(serve.Options{Registry: e.reg, DisableTelemetry: true})
	if e.rt, err = cluster.New(cluster.Options{Replicas: []string{e.warm.httpAddr}, CacheEntries: -1}); err != nil {
		e.close()
		return nil, err
	}
	if _, err = e.rt.StartStream("127.0.0.1:0"); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func (e *probeEnv) close() {
	if e.rt != nil {
		e.rt.Close()
	}
	if e.warm != nil {
		e.warm.close()
	}
	if e.cold != nil {
		e.cold.Close()
	}
	if e.quiet != nil {
		e.quiet.Close()
	}
	e.loop.Close()
}

// time runs fn in samples groups of inner calls, fewer under -quick.
func (e *probeEnv) time(samples, inner int, fn func(i int)) []float64 {
	samples = max(samples/e.cfg.probeScale, 3)
	i := 0
	return timeCalls(samples, inner, func() { fn(i % probePlans); i++ })
}

func scaled(samples []float64, by float64) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = s * by
	}
	return out
}

// run fills ms with every isolated-call layer metric. Each is the
// median over at least 1000 timed calls (50 groups of 20 or more) into
// the layer's public function, on the workload's own plans.
func (e *probeEnv) run(ms metrics) error {
	ctx := context.Background()

	// stream codec and envelope.
	frames := make([][]byte, probePlans)
	for i, body := range e.single {
		frames[i], _ = stream.AppendFrame(nil, &stream.Frame{Type: stream.FrameEstimate, Seq: uint64(i), Body: body}) // bodies are far below the frame limit
	}
	var buf []byte
	ms.setDist("stream.frame_encode_ns", e.time(50, 200, func(i int) {
		buf, _ = stream.AppendFrame(buf[:0], &stream.Frame{Type: stream.FrameEstimate, Seq: uint64(i), Body: e.single[i]})
	}))
	rd, br := bytes.NewReader(nil), bufio.NewReader(nil)
	ms.setDist("stream.frame_decode_ns", e.time(50, 200, func(i int) {
		rd.Reset(frames[i])
		br.Reset(rd)
		_, _ = stream.ReadFrame(br) // frames were encoded above
	}))
	ms.setDist("stream.request_decode_ns", e.time(50, 100, func(i int) {
		var req stream.Request
		_ = stream.DecodeRequest(e.single[i], &req) // bodies were encoded by singleBody
	}))

	// plan, features, core.
	decode := func(i int) { _, _ = plan.DecodeJSON(e.wire[i]) } // wire is plan.EncodeJSON output
	ms.setDist("plan.decode_ns", e.time(50, 20, decode))
	i := 0
	ms.set("plan.decode_allocs", allocsPerCall(max(1000/e.cfg.probeScale, probePlans), func() { decode(i % probePlans); i++ }))

	perOp := 1 / float64(e.ops)
	var vecs []features.Vector
	ms.setDist("features.extract_ns_per_op", scaled(e.time(50, 20, func(int) {
		vecs, _ = features.ExtractPlans(e.plans, e.m.set.Mode)
	}), perOp))
	kinds := opKinds(e.plans, len(vecs))
	out := make([]plan.Resources, len(vecs))
	ms.setDist("core.predict_ns_per_op", scaled(e.time(50, 20, func(int) {
		e.m.set.PredictAllBatch(kinds, vecs, out)
	}), perOp))
	quantized, err := openAndLoad(e.m.storeDir, store.SlabQuantized)
	if err != nil {
		return err
	}
	qset, err := core.NewEstimatorSet(quantized.Models[plan.CPUTime], quantized.Models[plan.LogicalIO])
	if err != nil {
		return err
	}
	ms.setDist("core.predict_q_ns_per_op", scaled(e.time(50, 20, func(int) {
		qset.PredictAllBatch(kinds, vecs, out)
	}), perOp))

	if err := e.modelFiles(ms); err != nil {
		return err
	}

	// serve, in-process.
	single := func(svc *serve.Service) func(int) {
		return func(i int) {
			_, _ = svc.Estimate(ctx, serve.Request{Schema: schemaName, Resource: plan.CPUTime, Plan: e.plans[i]}) // failures show in the loop's gate, not here
		}
	}
	batch := serve.BatchRequest{Schema: schemaName, Resources: bothResources, Plans: e.plans}
	perPlan := 1 / float64(probePlans)
	svc := e.warm.svc
	ms.setDist("serve.estimate_hit_ns", e.time(50, 20, single(svc)))
	ms.setDist("serve.estimate_miss_ns", e.time(50, 20, single(e.cold)))
	ms.setDist("serve.batch_hit_ns_per_plan", scaled(e.time(50, 20, func(int) { _, _ = svc.EstimateBatch(ctx, batch) }), perPlan))
	ms.setDist("serve.batch_miss_ns_per_plan", scaled(e.time(50, 20, func(int) { _, _ = e.cold.EstimateBatch(ctx, batch) }), perPlan))
	cpuBatch := serve.BatchRequest{Schema: schemaName, Resource: plan.CPUTime, Plans: e.plans}
	ms.setDist("serve.stream_hit_ns_per_plan", scaled(e.time(50, 20, func(int) { _, _ = svc.EstimateStream(ctx, cpuBatch, 0) }), perPlan))

	resp, err := svc.Estimate(ctx, serve.Request{Schema: schemaName, Resource: plan.CPUTime, Plan: e.plans[0]})
	if err != nil {
		return err
	}
	ms.setDist("serve.encode_ns", e.time(50, 20, func(int) { _, _ = serve.MarshalWire(resp) }))

	// Telemetry overhead: the same warm call with and without it, in
	// alternating groups so drift hits both sides alike.
	var on, off []float64
	for r := 0; r < max(20/e.cfg.probeScale, 3); r++ {
		on = append(on, e.time(3, 50, single(svc))...)
		off = append(off, e.time(3, 50, single(e.quiet))...)
	}
	ms.set("obs.telemetry_overhead_pct", 100*(median(on)-median(off))/median(off))

	if err := e.handlers(ms); err != nil {
		return err
	}
	if err := e.feedback(ms); err != nil {
		return err
	}

	// cluster: placement, then the price of the extra hop.
	ring := cluster.NewRing([]string{"127.0.0.1:7001", "127.0.0.1:7002"}, 0)
	names := make([]string, probePlans)
	for i := range names {
		names[i] = fmt.Sprintf("w%03d", i)
	}
	ms.setDist("cluster.ring_pick_ns", e.time(50, 1000, func(i int) { ring.Pick(names[i]) }))
	return e.roundTrips(ms)
}

// modelFiles times decoding the published snapshot's two encodings from
// memory and records their sizes (§7.3's model-size figure).
func (e *probeEnv) modelFiles(ms metrics) error {
	dir := filepath.Join(e.m.storeDir, fmt.Sprintf("v%010d", e.m.manifest.Version))
	var slabBytes, jsonBytes float64
	var slabMS, jsonMS []float64
	for _, entry := range e.m.manifest.Models {
		slab, err := os.ReadFile(filepath.Join(dir, entry.SlabFile))
		if err != nil {
			return err
		}
		blob, err := os.ReadFile(filepath.Join(dir, entry.File))
		if err != nil {
			return err
		}
		slabBytes += float64(len(slab))
		jsonBytes += float64(len(blob))
		for r := 0; r < 5; r++ {
			start := time.Now()
			if _, _, err := core.LoadEstimatorSlab(slab, false); err != nil {
				return err
			}
			slabMS = append(slabMS, millisSince(start))
			start = time.Now()
			if _, err := core.LoadEstimator(bytes.NewReader(blob)); err != nil {
				return err
			}
			jsonMS = append(jsonMS, millisSince(start))
		}
	}
	ms.setDist("core.slab_load_ms", slabMS)
	ms.setDist("core.json_load_ms", jsonMS)
	ms.set("core.slab_bytes", slabBytes)
	ms.set("core.json_bytes", jsonBytes)

	var restores []float64
	for r := 0; r < 5; r++ {
		start := time.Now()
		if _, err := openAndLoad(e.m.storeDir, store.SlabExact); err != nil {
			return err
		}
		restores = append(restores, millisSince(start))
	}
	ms.setDist("store.restore_ms", restores)
	return nil
}

// handlers times the HTTP handlers with a recorder in place of a socket.
func (e *probeEnv) handlers(ms metrics) error {
	h := e.warm.svc.Handler()
	post := func(path string, body []byte, want int) error {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code != want {
			return fmt.Errorf("%s: status %d: %s", path, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
		}
		return nil
	}
	batch, err := batchBody(e.wire)
	if err != nil {
		return err
	}
	served, _ := e.reg.Lookup(schemaName, plan.CPUTime)
	observes := make([][]byte, probePlans)
	for i, w := range e.wire {
		observes[i], err = observeBody(served.Info.Version, e.m.set.PredictPlanAll(e.plans[i]).Get(plan.CPUTime), w)
		if err != nil {
			return err
		}
	}
	// One checked call each, so a handler that refuses shows up as an
	// error rather than as a fast probe.
	if err := post("/estimate", e.single[0], http.StatusOK); err != nil {
		return err
	}
	if err := post("/estimate/batch", batch, http.StatusOK); err != nil {
		return err
	}
	if err := post("/observe", observes[0], http.StatusAccepted); err != nil {
		return err
	}
	ms.setDist("serve.handler_single_ns", e.time(50, 20, func(i int) { _ = post("/estimate", e.single[i], http.StatusOK) }))
	ms.setDist("serve.handler_batch_ns_per_plan", scaled(e.time(50, 20, func(int) {
		_ = post("/estimate/batch", batch, http.StatusOK)
	}), 1/float64(probePlans)))
	ms.setDist("serve.handler_observe_ns", e.time(50, 20, func(i int) { _ = post("/observe", observes[i], http.StatusAccepted) }))
	return nil
}

// feedback times the observe path from the loop down to the record
// encoder, each level on its own.
func (e *probeEnv) feedback(ms metrics) error {
	served, _ := e.reg.Lookup(schemaName, plan.CPUTime)
	observations := make([]*feedback.Observation, probePlans)
	for i, p := range e.plans {
		observations[i] = &feedback.Observation{
			Schema: schemaName, Resource: plan.CPUTime, ModelVersion: served.Info.Version,
			Predicted: e.m.set.PredictPlanAll(p).Get(plan.CPUTime), Plan: p, UnixNanos: 1,
		}
	}
	if err := e.loop.Observe(observations[0]); err != nil {
		return err
	}
	ms.setDist("feedback.observe_ns", e.time(50, 20, func(i int) { _ = e.loop.Observe(observations[i]) }))

	log, err := feedback.OpenLog(feedback.LogOptions{Dir: filepath.Join(e.cfg.scratch, "probe-log")})
	if err != nil {
		return err
	}
	defer log.Close()
	if err := log.Append(observations[0]); err != nil {
		return err
	}
	ms.setDist("feedback.append_ns", e.time(50, 20, func(i int) { _ = log.Append(observations[i]) }))
	var rec []byte
	ms.setDist("feedback.encode_ns", e.time(50, 20, func(i int) { rec, _ = feedback.EncodeObservation(rec[:0], observations[i]) }))
	return nil
}

// roundTrips measures one-in-flight latency to the idle probe replica,
// directly and through the cache-less router in front of it. Direct is
// the coalescer's MaxWait floor; the difference is the router's hop.
func (e *probeEnv) roundTrips(ms metrics) error {
	direct, err := stream.Dial(e.warm.ss.Addr())
	if err != nil {
		return err
	}
	defer direct.Close()
	routed, err := stream.Dial(e.rt.StreamAddr())
	if err != nil {
		return err
	}
	defer routed.Close()
	n := max(1000/e.cfg.probeScale, 30)
	var directUS, routedUS []float64
	for i := 0; i < n; i++ {
		body := e.single[i%probePlans]
		for _, leg := range []struct {
			cl  *stream.Client
			out *[]float64
		}{{direct, &directUS}, {routed, &routedUS}} {
			start := time.Now()
			if _, err := leg.cl.EstimateBytes(context.Background(), body); err != nil {
				return err
			}
			*leg.out = append(*leg.out, micros(time.Since(start)))
		}
	}
	ms.setDist("stream.solo_rtt_us", directUS)
	ms.set("cluster.hop_us", median(routedUS)-median(directUS))
	return nil
}
