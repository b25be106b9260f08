package cluster

import (
	"repro/internal/obs"
)

// Metrics is the router's JSON metrics snapshot (GET /metrics); the
// Prometheus exposition renders the same numbers.
type Metrics struct {
	Inflight        int64            `json:"inflight"`
	FleetConsistent bool             `json:"fleet_consistent"`
	Replicas        []ReplicaMetrics `json:"replicas"`
	Decisions       DecisionMetrics  `json:"decisions"`
	Cache           CacheMetrics     `json:"cache"`
}

// ReplicaMetrics is one replica's forwarding counters and health.
type ReplicaMetrics struct {
	Name          string `json:"name"`
	Healthy       bool   `json:"healthy"`
	Requests      uint64 `json:"requests"`
	Errors        uint64 `json:"errors"`
	Inflight      int64  `json:"inflight"`
	StoreChecksum string `json:"store_checksum,omitempty"`
}

// DecisionMetrics counts routing outcomes: affinity (ring primary),
// spillover (version-consistent successor), shed (refused with
// Retry-After).
type DecisionMetrics struct {
	Affinity  uint64 `json:"affinity"`
	Spillover uint64 `json:"spillover"`
	Shed      uint64 `json:"shed"`
}

// CacheMetrics is the router response cache's hit accounting.
type CacheMetrics struct {
	Hits     uint64  `json:"hits"`
	Misses   uint64  `json:"misses"`
	HitRatio float64 `json:"hit_ratio"`
}

// Metrics snapshots the router's counters.
func (rt *Router) Metrics() Metrics {
	m := Metrics{
		Inflight:        rt.inflight.Load(),
		FleetConsistent: rt.FleetConsistent(),
		Decisions: DecisionMetrics{
			Affinity:  rt.decAffinity.Load(),
			Spillover: rt.decSpillover.Load(),
			Shed:      rt.decShed.Load(),
		},
	}
	hits, misses := rt.cacheHits.Load(), rt.cacheMisses.Load()
	m.Cache = CacheMetrics{Hits: hits, Misses: misses}
	if total := hits + misses; total > 0 {
		m.Cache.HitRatio = float64(hits) / float64(total)
	}
	for _, name := range rt.order {
		rp := rt.replicas[name]
		healthy, token := rp.state()
		m.Replicas = append(m.Replicas, ReplicaMetrics{
			Name:          rp.name,
			Healthy:       healthy,
			Requests:      rp.requests.Load(),
			Errors:        rp.errors.Load(),
			Inflight:      rp.inflight.Load(),
			StoreChecksum: token,
		})
	}
	return m
}

// Collector renders the router's metric families in Prometheus text
// format from one Metrics snapshot.
func (rt *Router) Collector() obs.Collector {
	return func(e *obs.Expo) {
		m := rt.Metrics()
		for _, r := range m.Replicas {
			labels := obs.Labels("replica", r.Name)
			e.Counter("resrouter_replica_requests_total",
				"Requests forwarded to each replica.", labels, float64(r.Requests))
			e.Counter("resrouter_replica_errors_total",
				"Transport failures per replica (request never answered).", labels, float64(r.Errors))
			e.Gauge("resrouter_replica_healthy",
				"Replica health from the last poll (1 healthy, 0 down).", labels, obs.Bool(r.Healthy))
			e.Gauge("resrouter_replica_inflight",
				"Requests currently forwarded to each replica.", labels, float64(r.Inflight))
		}
		for _, d := range [...]struct {
			name string
			n    uint64
		}{{"affinity", m.Decisions.Affinity}, {"spillover", m.Decisions.Spillover}, {"shed", m.Decisions.Shed}} {
			e.Counter("resrouter_routing_decisions_total",
				"Routing outcomes by decision.", obs.Labels("decision", d.name), float64(d.n))
		}
		e.Counter("resrouter_cache_hits_total",
			"Router response cache hits.", "", float64(m.Cache.Hits))
		e.Counter("resrouter_cache_misses_total",
			"Router response cache misses (token mismatches included).", "", float64(m.Cache.Misses))
		e.Gauge("resrouter_cache_hit_ratio",
			"Router response cache hit ratio since start.", "", m.Cache.HitRatio)
		e.Gauge("resrouter_inflight",
			"Requests currently in flight through the router.", "", float64(m.Inflight))
		perWrite := rt.framesPerWrite.Snapshot()
		e.IntHistogram("resrouter_stream_frames_per_write",
			"Answer frames per socket write on the stream listener.", "", &perWrite)
		e.Gauge("resrouter_fleet_consistent",
			"1 when every healthy replica serves the same model versions.", "", obs.Bool(m.FleetConsistent))
	}
}
