package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/plan"
	"repro/internal/stream"
	"repro/internal/xrand"
)

// servedSFs are the scale factors request plans are generated at: the
// training range and beyond it, as production traffic would be.
// http_loop stays inside the training range (trainedSFs) so that the
// observations it reports never look like drift and trigger a retrain.
var (
	servedSFs  = []float64{1, 2, 4, 6, 8}
	trainedSFs = []float64{1, 2, 4}
)

// request is one pre-encoded client request and what it must return.
type request struct {
	body    []byte // stream frame body or HTTP body
	observe []byte // http_loop: the /observe body that follows the estimate
	plans   []int  // indices into pool.plans, in the order the response lists them
	schema  string
	owner   int // fleet_mixed: index of the replica the ring gives schema to
}

// pool is a workload's whole input, generated from --seed before the
// clock starts: the program under test only ever sees these bytes.
type pool struct {
	plans    []*plan.Plan
	wire     [][]byte         // plan.EncodeJSON of each plan
	want     []plan.Resources // in-process totals, parallel to plans
	requests []request
	order    []int32 // fleet_mixed: seeded Zipf draws into requests; nil cycles in order
	hash     string  // digest of the request stream, see streamHash
}

func (p *pool) pick(k int64) *request {
	if p.order != nil {
		return &p.requests[p.order[k%int64(len(p.order))]]
	}
	return &p.requests[k%int64(len(p.requests))]
}

// halfCycle is the distance to the request the traced loop replays in
// place of the one it just sent. Replaying the same request would
// always find the prediction cache holding what the real request just
// put there; the request half a pool away meets the cache in the state
// a real request at that position would.
func (p *pool) halfCycle() int64 { return int64(len(p.requests) / 2) }

// newPool generates n plans at the given scale factors from the seed,
// encodes them, and computes every expected total in-process with the
// restored models.
func newPool(cfg config, m *model, n int, sfs []float64) (*pool, error) {
	if cfg.quick {
		n = max(n/8, 64)
	}
	p := &pool{plans: executedPlans(cfg.seed, n, sfs)}
	p.want = m.set.PredictPlansAll(p.plans)
	p.wire = make([][]byte, len(p.plans))
	for i, pl := range p.plans {
		var err error
		if p.wire[i], err = plan.EncodeJSON(pl); err != nil {
			return nil, err
		}
	}
	return p, nil
}

func singleBody(schema string, wire []byte) ([]byte, error) {
	return json.Marshal(&stream.Request{Schema: schema, Resource: "cpu", Plan: wire})
}

// batchBody is a POST /estimate/batch body asking for both resources.
func batchBody(wires [][]byte) ([]byte, error) {
	raw := make([]json.RawMessage, len(wires))
	for i, w := range wires {
		raw[i] = w
	}
	return json.Marshal(map[string]any{"schema": schemaName, "resources": "all", "plans": raw})
}

// observeBody is the POST /observe report a client sends once a plan has
// run: the plan (its wire form already carries the engine's actuals),
// the served version and the served cpu total.
func observeBody(version uint64, predicted float64, wire []byte) ([]byte, error) {
	return json.Marshal(map[string]any{
		"schema": schemaName, "resource": "cpu", "model_version": version,
		"predicted": predicted, "plan": json.RawMessage(wire),
	})
}

// singlePlanPool is one cpu estimate request per plan.
func singlePlanPool(cfg config, m *model, n int, sfs []float64) (*pool, error) {
	p, err := newPool(cfg, m, n, sfs)
	if err != nil {
		return nil, err
	}
	for i := range p.plans {
		body, err := singleBody(schemaName, p.wire[i])
		if err != nil {
			return nil, err
		}
		p.requests = append(p.requests, request{body: body, plans: []int{i}, schema: schemaName})
	}
	p.seal()
	return p, nil
}

const batchSize = 64

// batchPool packs 8192 plans into /estimate/batch bodies of 64, both
// resources at once.
func batchPool(cfg config, m *model, _ *target) (*pool, error) {
	p, err := newPool(cfg, m, 8192, servedSFs)
	if err != nil {
		return nil, err
	}
	for lo := 0; lo+batchSize <= len(p.plans); lo += batchSize {
		idx := make([]int, batchSize)
		for j := range idx {
			idx[j] = lo + j
		}
		body, err := batchBody(p.wire[lo : lo+batchSize])
		if err != nil {
			return nil, err
		}
		p.requests = append(p.requests, request{body: body, plans: idx, schema: schemaName})
	}
	p.seal()
	return p, nil
}

// observePool pairs every estimate with the /observe report for the
// same plan.
func observePool(cfg config, m *model, tgt *target) (*pool, error) {
	p, err := singlePlanPool(cfg, m, 2048, trainedSFs)
	if err != nil {
		return nil, err
	}
	served, ok := tgt.reg.Lookup(schemaName, plan.CPUTime)
	if !ok {
		return nil, fmt.Errorf("no cpu model published")
	}
	for i := range p.requests {
		p.requests[i].observe, err = observeBody(served.Info.Version, p.want[i].Get(plan.CPUTime), p.wire[i])
		if err != nil {
			return nil, err
		}
	}
	p.seal()
	return p, nil
}

const (
	fleetSchemas    = 8
	fleetZipf       = 1.1
	fleetOrderDraws = 1 << 20
	fleetRankSeed   = 11 // fixes which body holds which Zipf rank, see fleetPool
)

// fleetPool is 1024 plans under each of 8 schema names — 4 per replica
// by the router's own ring — drawn Zipf(1.1) from a seeded sequence, so
// some bodies repeat often enough to stay in the router's response
// cache and most do not.
func fleetPool(cfg config, m *model, tgt *target) (*pool, error) {
	p, err := newPool(cfg, m, 1024, servedSFs)
	if err != nil {
		return nil, err
	}
	addrs := make([]string, len(tgt.replicas))
	for i, r := range tgt.replicas {
		addrs[i] = r.httpAddr
	}
	for owner, schemas := range assignSchemas(addrs, fleetSchemas/len(addrs)) {
		for _, schema := range schemas {
			for i := range p.plans {
				body, err := singleBody(schema, p.wire[i])
				if err != nil {
					return nil, err
				}
				p.requests = append(p.requests, request{body: body, plans: []int{i}, schema: schema, owner: owner})
			}
		}
	}
	// Ranks are spread over the bodies by a shuffle, so rank 1 is not
	// replica 0's first plan — but by the same shuffle whatever --seed
	// is. Rank 1 alone draws 15% of the traffic and plan i comes from
	// template i modulo the template count, so a seeded shuffle made the
	// hot set small scans under one seed and wide joins under the next:
	// 9% more bytes and operators per request either way, which is a
	// different workload, not a different sample of this one. The seed
	// still decides every plan's parameters and the order of the draws.
	perm := xrand.New(fleetRankSeed).Split("fleet-rank").Perm(len(p.requests))
	rng := xrand.New(cfg.seed).Split("fleet-order")
	zipf := xrand.NewZipf(int64(len(p.requests)), fleetZipf)
	p.order = make([]int32, fleetOrderDraws)
	for i := range p.order {
		p.order[i] = int32(perm[zipf.Rank(rng)-1])
	}
	p.seal()
	return p, nil
}

// seal records the digest of the request stream: every request's plans
// with their expected totals in issue order, its /observe body, then
// the draw sequence. Request bodies themselves are left out because
// fleet_mixed's carry schema names that depend on the replicas'
// ephemeral ports; the plans under the names do not.
func (p *pool) seal() {
	h := sha256.New()
	var n [8]byte
	for i := range p.requests {
		r := &p.requests[i]
		for _, pi := range r.plans {
			h.Write(p.wire[pi])
			binary.LittleEndian.PutUint64(n[:], math.Float64bits(p.want[pi].Get(plan.CPUTime)))
			h.Write(n[:])
		}
		h.Write(r.observe)
	}
	for _, o := range p.order {
		binary.LittleEndian.PutUint32(n[:4], uint32(o))
		h.Write(n[:4])
	}
	p.hash = hex.EncodeToString(h.Sum(nil)[:12])
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
