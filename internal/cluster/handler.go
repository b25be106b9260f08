package cluster

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strconv"

	"repro/internal/obs"
	"repro/internal/serve"
)

// Handler returns the router's HTTP surface — the same endpoints as a
// single resserve, fronted by affinity routing:
//
//	POST /estimate         routed by schema over the stream pool
//	POST /estimate/batch   proxied to the schema's affinity replica
//	POST /observe          proxied to the schema's affinity replica
//	GET  /models           proxied to one healthy replica
//	POST /models           fanned out to every healthy replica
//	POST /models/rollback  fanned out to every healthy replica
//	GET  /healthz          fleet view: per-replica health + versions
//	GET  /metrics          router metrics (JSON or Prometheus)
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /estimate", rt.routed(serve.MaxEstimateBody, rt.handleEstimate))
	mux.HandleFunc("POST /estimate/batch", rt.routed(serve.MaxBatchBody, rt.proxyRouted))
	mux.HandleFunc("POST /observe", rt.routed(serve.MaxEstimateBody, rt.proxyRouted))
	mux.HandleFunc("GET /models", rt.handleModelsGet)
	mux.HandleFunc("POST /models", rt.handleFanout)
	mux.HandleFunc("POST /models/rollback", rt.handleFanout)
	mux.HandleFunc("GET /healthz", rt.handleHealthz)
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		serve.WriteMetrics(w, r, rt.obsReg, func() any { return rt.Metrics() })
	})
	// serve's middleware: one X-Request-ID, the client's or one minted
	// here, follows a request through the tier — echoed on the response,
	// in every error envelope, and sent on the hop to a replica.
	return serve.WithRequestID(mux)
}

// clientIDHeader names a client for per-client admission, and goes on
// with the request to a replica. Canonical, so net/http neither
// rewrites nor allocates for it.
const clientIDHeader = "X-Client-Id"

// clientKey identifies a client for per-client admission: the
// X-Client-Id header when present, else the remote host.
func clientKey(r *http.Request) string {
	if id := r.Header.Get(clientIDHeader); id != "" {
		return id
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// readBody reads a request body whole, under limit: the endpoint's
// serve.Max*Body, so the router refuses the bodies a replica would,
// answering the request itself. The body is never from serve's pool:
// the HTTP transport may still read a forwarded body after the replica
// has answered.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	if err != nil {
		serve.WriteError(w, r, serve.BadBody(err))
		return nil, false
	}
	return body, true
}

// routed is the handler of an endpoint whose body, at most limit bytes,
// is routed by its schema: admission first, then the body, then answer.
func (rt *Router) routed(limit int64, answer func(http.ResponseWriter, *http.Request, []byte)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ctr, ok := rt.admit(clientKey(r))
		if !ok {
			serve.WriteError(w, r, errShed)
			return
		}
		defer rt.release(ctr)
		if body, ok := readBody(w, r, limit); ok {
			answer(w, r, body)
		}
	}
}

func (rt *Router) handleEstimate(w http.ResponseWriter, r *http.Request, body []byte) {
	if r.URL.RawQuery != "" {
		// Explain (and any future query switch) changes the response
		// shape, so it bypasses the body-keyed cache and the stream
		// transport: proxy it to the affinity replica verbatim.
		rt.proxyRouted(w, r, body)
		return
	}
	resp, rerr := rt.estimate(r.Context(), body)
	if rerr != nil {
		serve.WriteError(w, r, rerr)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(resp)
}

// proxyRouted proxies the request verbatim to its schema's replica,
// over the failover ladder route holds.
func (rt *Router) proxyRouted(w http.ResponseWriter, r *http.Request, body []byte) {
	try := func(rp *replica) error { return proxyVerbatim(w, r, rp, body) }
	if rerr := rt.route(r.Context(), serve.PeekSchema(body), try); rerr != nil {
		serve.WriteError(w, r, rerr)
	}
}

func (rt *Router) handleModelsGet(w http.ResponseWriter, r *http.Request) {
	// The fleet converges on one model set, so any healthy replica can
	// answer; prefer ring order for a stable choice.
	for _, name := range rt.ring.PickN("models", len(rt.order)) {
		rp := rt.replicas[name]
		if healthy, _ := rp.state(); !healthy {
			continue
		}
		if err := proxyVerbatim(w, r, rp, nil); err != nil {
			if !rp.blame(r.Context(), err) {
				serve.WriteError(w, r, serve.ErrorFor(r.Context().Err()))
				return
			}
			continue
		}
		rp.requests.Add(1)
		return
	}
	serve.WriteError(w, r, errNoReplica)
}

// handleFanout applies a model mutation (publish, rollback) to every
// healthy replica so the fleet moves together. The first replica's
// response is the client's answer; any later failure surfaces as a
// conflict naming the replicas left behind.
func (rt *Router) handleFanout(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r, serve.MaxPublishBody)
	if !ok {
		return
	}
	var (
		firstStatus int
		firstBody   []byte
		applied     []string
		failed      []string
	)
	for _, name := range rt.order {
		rp := rt.replicas[name]
		if healthy, _ := rp.state(); !healthy {
			failed = append(failed, name)
			continue
		}
		status, respBody, err := readReply(send(r.Context(), rp, r.Method, r.URL.RequestURI(), r.Header, body))
		if err != nil {
			if !rp.blame(r.Context(), err) { // the replicas left are neither asked nor blamed
				rt.logger.Warn("model fanout cancelled", "applied", applied, "error", err)
				serve.WriteError(w, r, serve.ErrorFor(r.Context().Err()))
				return
			}
			failed = append(failed, name)
			continue
		}
		rp.requests.Add(1)
		if firstBody == nil {
			firstStatus, firstBody = status, respBody
		}
		if status < 300 {
			applied = append(applied, name)
		} else {
			failed = append(failed, name)
		}
	}
	if firstBody == nil {
		serve.WriteError(w, r, errNoReplica)
		return
	}
	if len(failed) > 0 && len(applied) > 0 {
		rt.logger.Warn("partial model fanout", "applied", applied, "failed", failed)
		serve.WriteError(w, r, &serve.Error{
			Message: "model change applied to " + strconv.Itoa(len(applied)) + "/" +
				strconv.Itoa(len(applied)+len(failed)) + " replicas; fleet inconsistent until next poll",
			Code: serve.CodeConflict,
		})
		return
	}
	// Refresh version tokens immediately so the next requests route
	// (and cache) under the new model set instead of waiting out a
	// poll interval.
	rt.PollNow()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(firstStatus)
	w.Write(firstBody)
}

// fleetHealth is the router's GET /healthz body: the per-replica view
// the poller maintains plus the fleet-wide consistency verdict.
type fleetHealth struct {
	Status     string          `json:"status"` // ok | degraded | down
	Consistent bool            `json:"consistent"`
	Replicas   []replicaStatus `json:"replicas"`
	Build      obs.Build       `json:"build"`
}

type replicaStatus struct {
	Name          string `json:"name"`
	Healthy       bool   `json:"healthy"`
	StoreChecksum string `json:"store_checksum,omitempty"`
	StreamAddr    string `json:"stream_addr,omitempty"`
	Error         string `json:"error,omitempty"`
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	fh := fleetHealth{Consistent: rt.FleetConsistent(), Build: obs.BuildInfo()}
	healthyN := 0
	for _, name := range rt.order {
		rp := rt.replicas[name]
		rp.mu.Lock()
		st := replicaStatus{
			Name:          rp.name,
			Healthy:       rp.healthy,
			StoreChecksum: rp.token,
			StreamAddr:    rp.streamAddr,
		}
		if rp.lastErr != nil {
			st.Error = rp.lastErr.Error()
		}
		rp.mu.Unlock()
		if st.Healthy {
			healthyN++
		}
		fh.Replicas = append(fh.Replicas, st)
	}
	status := http.StatusOK
	switch {
	case healthyN == 0:
		fh.Status = "down"
		status = http.StatusServiceUnavailable
	case healthyN < len(rt.order) || !fh.Consistent:
		fh.Status = "degraded"
	default:
		fh.Status = "ok"
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(fh)
}
