package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/serve"
	"repro/internal/stream"
	"repro/internal/workload"
)

// The replica-scaling baseline behind cmd/resbench -exp clusterbench:
// at each fleet size it stands up N in-process resserve replicas
// (sharing one model registry, as a fleet restored from one store
// snapshot would) behind a real router and drives the router's
// streaming listener closed-loop, then reports estimates/s, p99 and
// the scaling efficiency vs one replica into BENCH_cluster.json.
//
// The protocol is weak scaling: per-replica offered load is held
// constant (conns × depth workers pinned to schemas the ring assigns
// to that replica), so fleet size N carries N× the clients and N× the
// total requests of fleet size 1, and efficiency is
// (throughput_N / N) / throughput_1. Schema-affinity routing is what
// makes near-linear scaling possible at all here: each schema's
// requests land on one replica's micro-batcher and prediction cache,
// so replicas proceed independently with no cross-replica
// coordination on the hot path. Replica service cycles are dominated
// by the micro-batcher's coalescing wait (MaxWait), which is how a
// single benchmark host can overlap N replicas' cycles honestly — the
// knob is recorded in the output, and the router's decision counters
// are too (spillover > 0 would mean affinity was not actually
// measured).

// ClusterBenchFleet is one fleet size's measurement.
type ClusterBenchFleet struct {
	Replicas int `json:"replicas"`
	// Requests is the total estimates driven through the router at
	// this fleet size (weak scaling: proportional to Replicas).
	Requests int `json:"requests"`
	// EstPerSec is router-side end-to-end throughput; PerReplicaPerSec
	// divides it by the fleet size.
	EstPerSec        float64 `json:"est_per_sec"`
	PerReplicaPerSec float64 `json:"per_replica_per_sec"`
	P50Micros        float64 `json:"p50_us"`
	P99Micros        float64 `json:"p99_us"`
	// Efficiency is PerReplicaPerSec / the 1-replica EstPerSec: 1.0 is
	// perfectly linear scaling.
	Efficiency float64 `json:"efficiency"`
	// Affinity/Spillover/Shed are the router's routing-decision
	// counters for this run. Spillover and Shed should be 0 — anything
	// else means the run measured overload behavior, not affinity
	// scaling.
	Affinity  uint64 `json:"affinity"`
	Spillover uint64 `json:"spillover"`
	Shed      uint64 `json:"shed"`
}

// ClusterBench is the serializable replica-scaling baseline.
type ClusterBench struct {
	Queries           int     `json:"queries"`
	Operators         int     `json:"operators"`
	Iterations        int     `json:"iterations"`
	GoMaxProcs        int     `json:"gomaxprocs"`
	SchemasPerReplica int     `json:"schemas_per_replica"`
	ConnsPerReplica   int     `json:"conns_per_replica"`
	PipelineDepth     int     `json:"pipeline_depth"`
	RequestsPerWorker int     `json:"requests_per_worker"`
	MaxWaitMicros     float64 `json:"replica_max_wait_us"`

	Fleets []ClusterBenchFleet `json:"fleets"`
	// EfficiencyAtMax is the largest fleet's efficiency — the number
	// the -cluster-efficiency-min guard checks.
	EfficiencyAtMax float64 `json:"efficiency_at_max"`
}

// clusterReplica is one in-process replica: service, stream listener
// and HTTP listener, the surfaces a real resserve process exposes.
type clusterReplica struct {
	svc  *serve.Service
	ss   *stream.Server
	hsrv *http.Server
	addr string
}

func (r *clusterReplica) close() {
	r.hsrv.Close()
	r.ss.Close()
	r.svc.Close()
}

func startClusterReplica(reg *serve.Registry, maxWait time.Duration) (*clusterReplica, error) {
	svc := serve.New(serve.Options{Registry: reg, Workers: 2, DisableTelemetry: true})
	ss, err := stream.Start("127.0.0.1:0", stream.Options{Service: svc, MaxWait: maxWait})
	if err != nil {
		svc.Close()
		return nil, err
	}
	svc.SetStreamAddr(ss.Addr())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		ss.Close()
		svc.Close()
		return nil, err
	}
	hsrv := &http.Server{Handler: svc.Handler()}
	go hsrv.Serve(ln)
	return &clusterReplica{svc: svc, ss: ss, hsrv: hsrv, addr: ln.Addr().String()}, nil
}

// assignSchemas walks a synthetic schema pool ("w000", "w001", ...)
// until the ring over addrs has granted each replica perReplica
// schemas, and returns the per-replica assignments in addrs order.
// Using the same ring construction as the router makes the bench's
// idea of ownership exact, not probabilistic.
func assignSchemas(addrs []string, perReplica int) [][]string {
	ring := cluster.NewRing(addrs, 0)
	byAddr := make(map[string][]string, len(addrs))
	full := 0
	for i := 0; full < len(addrs); i++ {
		if i > 10000*len(addrs) {
			// Unreachable with a sane ring; guards against looping
			// forever if placement ever degenerates.
			break
		}
		s := fmt.Sprintf("w%03d", i)
		owner := ring.Pick(s)
		if len(byAddr[owner]) >= perReplica {
			continue
		}
		byAddr[owner] = append(byAddr[owner], s)
		if len(byAddr[owner]) == perReplica {
			full++
		}
	}
	out := make([][]string, len(addrs))
	for i, a := range addrs {
		out[i] = byAddr[a]
	}
	return out
}

// RunClusterBench measures router throughput at each fleet size in
// fleets (e.g. 1, 2, 4). n is the workload size, iters the benchmark
// model's MART iterations, schemasPer the schemas owned per replica,
// conns the streaming connections per replica's worth of load, depth
// the in-flight estimates per connection, reqs the estimates each
// worker issues in the timed run, and maxWait the replicas'
// micro-batcher coalescing bound.
func RunClusterBench(n, iters, schemasPer, conns, depth, reqs int, fleets []int, maxWait time.Duration) (*ClusterBench, error) {
	if schemasPer <= 0 {
		schemasPer = 4
	}
	if conns <= 0 {
		conns = 2
	}
	if depth <= 0 {
		depth = 4
	}
	if reqs <= 0 {
		reqs = 200
	}
	if maxWait <= 0 {
		maxWait = 4 * time.Millisecond
	}
	est, plans, err := clusterBenchWorkload(n, iters)
	if err != nil {
		return nil, err
	}
	res := &ClusterBench{
		Queries:           len(plans),
		Iterations:        iters,
		GoMaxProcs:        runtime.GOMAXPROCS(0),
		SchemasPerReplica: schemasPer,
		ConnsPerReplica:   conns,
		PipelineDepth:     depth,
		RequestsPerWorker: reqs,
		MaxWaitMicros:     float64(maxWait.Microseconds()),
	}
	for _, p := range plans {
		res.Operators += len(p.Nodes())
	}
	encoded := make([]json.RawMessage, len(plans))
	for i, p := range plans {
		if encoded[i], err = plan.EncodeJSON(p); err != nil {
			return nil, err
		}
	}

	// One registry shared by every replica at every fleet size: the
	// in-process stand-in for a fleet restored from one store snapshot.
	// The wildcard schema serves every synthetic schema name the ring
	// assignment produces.
	reg := serve.NewRegistry()
	reg.Publish("", est)

	for _, size := range fleets {
		fleet, err := runClusterFleet(reg, encoded, size, schemasPer, conns, depth, reqs, maxWait)
		if err != nil {
			return nil, fmt.Errorf("clusterbench: fleet of %d: %w", size, err)
		}
		res.Fleets = append(res.Fleets, *fleet)
	}
	// Efficiency is relative to the measured 1-replica run when the
	// sweep has one (the usual 1,2,4 shape), else to the smallest
	// fleet's per-replica throughput.
	if len(res.Fleets) > 0 {
		base := res.Fleets[0].PerReplicaPerSec
		for i := range res.Fleets {
			res.Fleets[i].Efficiency = res.Fleets[i].PerReplicaPerSec / base
		}
		res.EfficiencyAtMax = res.Fleets[len(res.Fleets)-1].Efficiency
	}
	return res, nil
}

func runClusterFleet(reg *serve.Registry, encoded []json.RawMessage, size, schemasPer, conns, depth, reqs int, maxWait time.Duration) (*ClusterBenchFleet, error) {
	replicas := make([]*clusterReplica, 0, size)
	defer func() {
		for _, r := range replicas {
			r.close()
		}
	}()
	addrs := make([]string, 0, size)
	for i := 0; i < size; i++ {
		r, err := startClusterReplica(reg, maxWait)
		if err != nil {
			return nil, err
		}
		replicas = append(replicas, r)
		addrs = append(addrs, r.addr)
	}

	// The router cache is disabled so forwarding is what gets
	// measured; with it on, a repeated-body closed loop measures the
	// router's LRU instead of the fleet.
	rt, err := cluster.New(cluster.Options{
		Replicas:     addrs,
		CacheEntries: -1,
		PollInterval: 500 * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	defer rt.Close()
	streamAddr, err := rt.StartStream("127.0.0.1:0")
	if err != nil {
		return nil, err
	}

	// Pre-encode each worker's request bodies: workers are pinned to
	// the schemas the ring assigns to their replica, so every request
	// is an affinity hit and replicas proceed independently.
	assigned := assignSchemas(addrs, schemasPer)
	type workload struct{ bodies [][]byte }
	var workers []workload
	for ri := range replicas {
		for c := 0; c < conns*depth; c++ {
			schema := assigned[ri][c%len(assigned[ri])]
			w := workload{bodies: make([][]byte, len(encoded))}
			for i, enc := range encoded {
				b, err := json.Marshal(&stream.Request{Schema: schema, Resource: "cpu", Plan: enc})
				if err != nil {
					return nil, err
				}
				w.bodies[i] = b
			}
			workers = append(workers, w)
		}
	}

	// One streaming connection to the router per conns slot, shared by
	// depth workers.
	clients := make([]*stream.Client, size*conns)
	for i := range clients {
		if clients[i], err = stream.Dial(streamAddr); err != nil {
			return nil, err
		}
	}
	defer func() {
		for _, cl := range clients {
			cl.Close()
		}
	}()

	run := func(perWorker int, record bool) ([]time.Duration, error) {
		var wg sync.WaitGroup
		errs := make(chan error, len(workers))
		lat := make([][]time.Duration, len(workers))
		for wi := range workers {
			wg.Add(1)
			go func(wi int) {
				defer wg.Done()
				cl := clients[wi/depth]
				bodies := workers[wi].bodies
				for r := 0; r < perWorker; r++ {
					t0 := time.Now()
					if _, err := cl.EstimateBytes(context.Background(), bodies[(wi+r)%len(bodies)]); err != nil {
						errs <- err
						return
					}
					if record {
						lat[wi] = append(lat[wi], time.Since(t0))
					}
				}
			}(wi)
		}
		wg.Wait()
		select {
		case err := <-errs:
			return nil, err
		default:
		}
		var flat []time.Duration
		for _, l := range lat {
			flat = append(flat, l...)
		}
		return flat, nil
	}

	// Warm pass: every (schema, plan) body once, so the timed run
	// measures each replica's steady state (prediction caches hot)
	// rather than first-touch model evaluation.
	if _, err := run(len(encoded), false); err != nil {
		return nil, err
	}

	start := time.Now()
	lat, err := run(reqs, true)
	if err != nil {
		return nil, err
	}
	dur := time.Since(start)

	total := len(workers) * reqs
	m := rt.Metrics()
	fleet := &ClusterBenchFleet{
		Replicas:  size,
		Requests:  total,
		EstPerSec: float64(total) / dur.Seconds(),
		Affinity:  m.Decisions.Affinity,
		Spillover: m.Decisions.Spillover,
		Shed:      m.Decisions.Shed,
	}
	fleet.PerReplicaPerSec = fleet.EstPerSec / float64(size)
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	if len(lat) > 0 {
		fleet.P50Micros = float64(lat[len(lat)/2].Microseconds())
		fleet.P99Micros = float64(lat[len(lat)*99/100].Microseconds())
	}
	return fleet, nil
}

// clusterBenchWorkload trains one quick CPU model over a TPC-H-shaped
// workload and returns it with the executed plans.
func clusterBenchWorkload(n, iters int) (*core.Estimator, []*plan.Plan, error) {
	qs := workload.GenTPCH(workload.Config{Seed: 1, N: n, SFs: []float64{1, 2, 4, 8}, Z: 2, Corr: 0.85})
	eng := engine.New(nil)
	for _, q := range qs {
		eng.Run(q.Plan)
	}
	plans := Plans(qs)
	cfg := core.DefaultConfig()
	cfg.Mart.Iterations = iters
	est, err := core.Train(plans, plan.CPUTime, core.NewScaleTable(), cfg)
	if err != nil {
		return nil, nil, err
	}
	return est, plans, nil
}
