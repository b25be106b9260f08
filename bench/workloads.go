package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/feedback"
	"repro/internal/plan"
	"repro/internal/serve"
	"repro/internal/stream"
)

// Every workload is a closed loop: each caller of this service (an
// optimizer costing a candidate plan, an admission controller) waits
// for its reply before it asks again. Load comes from one process over
// conns connections; stream workloads keep depth requests in flight on
// each so the replica's coalescer fills by count, not by its timer.
type workloadSpec struct {
	name string

	conns, depth int
	// all asks for both resources ("resources":"all") and so checks two
	// totals per plan; otherwise the request is a cpu estimate.
	all bool

	start     func(cfg config, m *model, feedbackDir string) (*target, error)
	buildPool func(cfg config, m *model, tgt *target) (*pool, error)
	dial      func(tgt *target) (client, error)
}

var workloads = []*workloadSpec{
	{
		name:  "stream_hot",
		conns: 2, depth: 64,
		start:     func(_ config, m *model, _ string) (*target, error) { return startSingle(m, serve.Options{}, nil) },
		buildPool: func(cfg config, m *model, _ *target) (*pool, error) { return singlePlanPool(cfg, m, 256, servedSFs) },
		dial:      dialStream,
	},
	{
		name:  "batch_cold",
		conns: 2, depth: 1, all: true,
		start: func(_ config, m *model, _ string) (*target, error) {
			return startSingle(m, serve.Options{CacheEntries: 4096}, nil)
		},
		buildPool: batchPool,
		dial:      func(tgt *target) (client, error) { return newHTTPClient(tgt.httpBase, "/estimate/batch"), nil },
	},
	{
		name:  "http_loop",
		conns: 2, depth: 1,
		start: func(cfg config, m *model, dir string) (*target, error) {
			fb := feedback.Options{Dir: dir}
			if cfg.quick {
				// The smoke's 40-iteration model misses by enough to look
				// like drift, and a retrain would change the served totals
				// under the loop's feet.
				fb.DriftThreshold = 1e9
			}
			return startSingle(m, serve.Options{}, &fb)
		},
		buildPool: observePool,
		dial:      func(tgt *target) (client, error) { return newHTTPClient(tgt.httpBase, "/estimate"), nil },
	},
	{
		name:  "fleet_mixed",
		conns: 2, depth: 64,
		start:     startFleet,
		buildPool: fleetPool,
		dial:      dialStream,
	},
}

func findWorkload(name string) *workloadSpec {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// replica is one in-process resserve: the service and both listeners a
// real process exposes, bound to loopback.
type replica struct {
	svc      *serve.Service
	ss       *stream.Server
	hs       *http.Server
	httpAddr string
}

func startReplica(reg *serve.Registry, opts serve.Options) (*replica, error) {
	opts.Registry = reg
	svc := serve.New(opts)
	ss, err := stream.Start("127.0.0.1:0", stream.Options{Service: svc})
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
	hs := &http.Server{Handler: svc.Handler()}
	go hs.Serve(ln) // returns when close() closes the server
	return &replica{svc: svc, ss: ss, hs: hs, httpAddr: ln.Addr().String()}, nil
}

func (r *replica) close() {
	r.hs.Close()
	r.ss.Close()
	r.svc.Close()
}

// target is the system under test as one workload sees it.
type target struct {
	reg      *serve.Registry
	replicas []*replica
	loop     *feedback.Loop  // http_loop only
	router   *cluster.Router // fleet_mixed only

	streamAddr string // where stream clients dial: the replica, or the router
	httpBase   string
}

func (t *target) close() {
	if t.router != nil {
		t.router.Close()
	}
	for _, r := range t.replicas {
		r.close()
	}
	if t.loop != nil {
		t.loop.Close()
	}
}

// startSingle stands up one replica with default options apart from
// opts, and a feedback loop publishing to its registry when fb is set.
func startSingle(m *model, opts serve.Options, fb *feedback.Options) (*target, error) {
	t := &target{reg: m.registry()}
	if fb != nil {
		fb.Publisher = t.reg
		loop, err := feedback.New(*fb)
		if err != nil {
			return nil, err
		}
		t.loop, opts.Feedback = loop, loop
	}
	r, err := startReplica(t.reg, opts)
	if err != nil {
		t.close()
		return nil, err
	}
	t.replicas = []*replica{r}
	t.streamAddr, t.httpBase = r.ss.Addr(), "http://"+r.httpAddr
	return t, nil
}

const fleetReplicas = 2

// startFleet stands up two replicas sharing the restored registry
// behind a router with default options (response cache on).
func startFleet(_ config, m *model, _ string) (*target, error) {
	t := &target{reg: m.registry()}
	var addrs []string
	for i := 0; i < fleetReplicas; i++ {
		r, err := startReplica(t.reg, serve.Options{})
		if err != nil {
			t.close()
			return nil, err
		}
		t.replicas = append(t.replicas, r)
		addrs = append(addrs, r.httpAddr)
	}
	var err error
	if t.router, err = cluster.New(cluster.Options{Replicas: addrs}); err != nil {
		t.close()
		return nil, err
	}
	if t.streamAddr, err = t.router.StartStream("127.0.0.1:0"); err != nil {
		t.close()
		return nil, err
	}
	return t, nil
}

// assignSchemas walks the names w000, w001, ... until the router's ring
// over addrs has given every replica exactly per of them. Replica
// addresses carry ephemeral ports, so hashing fixed names would deal
// ownership differently on every run; walking until balanced makes the
// split 4/4 whatever the ports are.
func assignSchemas(addrs []string, per int) [][]string {
	ring := cluster.NewRing(addrs, 0)
	byAddr := make(map[string][]string, len(addrs))
	for i, full := 0, 0; full < len(addrs) && i < 10000*len(addrs); i++ {
		s := fmt.Sprintf("w%03d", i)
		owner := ring.Pick(s)
		if len(byAddr[owner]) >= per {
			continue
		}
		if byAddr[owner] = append(byAddr[owner], s); len(byAddr[owner]) == per {
			full++
		}
	}
	out := make([][]string, len(addrs))
	for i, a := range addrs {
		out[i] = byAddr[a]
	}
	return out
}

// client is one connection's view of the target.
type client interface {
	// estimate sends r's request bytes and returns the response body.
	estimate(r *request) ([]byte, error)
	// observe reports r's plan as executed (http_loop only).
	observe(r *request) error
	close()
}

type streamClient struct{ cl *stream.Client }

func dialStream(tgt *target) (client, error) {
	cl, err := stream.Dial(tgt.streamAddr)
	if err != nil {
		return nil, err
	}
	return streamClient{cl}, nil
}

func (c streamClient) estimate(r *request) ([]byte, error) {
	return c.cl.EstimateBytes(context.Background(), r.body)
}
func (c streamClient) observe(*request) error { return nil }
func (c streamClient) close()                 { c.cl.Close() }

// httpClient holds one keep-alive connection. It is used by one worker
// at a time, so the response buffer is reused across requests.
type httpClient struct {
	hc         *http.Client
	estimateTo string
	observeTo  string
	buf        bytes.Buffer
}

func newHTTPClient(base, estimatePath string) *httpClient {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	return &httpClient{hc: &http.Client{Transport: tr}, estimateTo: base + estimatePath, observeTo: base + "/observe"}
}

func (c *httpClient) post(url string, body []byte, want int) ([]byte, error) {
	resp, err := c.hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(c.buf.Bytes()))
	}
	return c.buf.Bytes(), nil
}

func (c *httpClient) estimate(r *request) ([]byte, error) {
	return c.post(c.estimateTo, r.body, http.StatusOK)
}

func (c *httpClient) observe(r *request) error {
	_, err := c.post(c.observeTo, r.observe, http.StatusAccepted)
	return err
}

func (c *httpClient) close() { c.hc.CloseIdleConnections() }

// scanFloats finds the next occurrence of key in body and parses the
// comma-separated numbers that follow it, up to n of them. It returns
// the unread remainder so a batch response's plans can be walked in
// order. The responses are the service's own encoding, whose shortest
// round-trip floats parse back to the exact bits that were served.
func scanFloats(body []byte, key string, n int) (vals [2]float64, rest []byte, ok bool) {
	i := bytes.Index(body, []byte(key))
	if i < 0 {
		return vals, nil, false
	}
	rest = body[i+len(key):]
	for k := 0; k < n; k++ {
		end := 0
		for end < len(rest) && rest[end] != ',' && rest[end] != ']' && rest[end] != '}' {
			end++
		}
		v, err := strconv.ParseFloat(string(rest[:end]), 64)
		if err != nil {
			return vals, nil, false
		}
		vals[k] = v
		rest = rest[min(end+1, len(rest)):]
	}
	return vals, rest, true
}

// checkResponse is the correctness gate: every plan's served total must
// equal the value precomputed in-process, bit for bit.
func (p *pool) checkResponse(resp []byte, r *request, all bool) bool {
	for _, pi := range r.plans {
		want := p.want[pi]
		var got [2]float64
		var ok bool
		if all {
			if got, resp, ok = scanFloats(resp, `"totals":[`, 2); !ok || !sameBits(got[1], want.Get(plan.LogicalIO)) {
				return false
			}
		} else if got, resp, ok = scanFloats(resp, `"total":`, 1); !ok {
			return false
		}
		if !sameBits(got[0], want.Get(plan.CPUTime)) {
			return false
		}
	}
	return true
}

// loopState is the closed loop's progress across phases: the request
// sequence continues from warm-up into the measured phases, so a
// cycling pool keeps cycling.
type loopState struct {
	spec    *workloadSpec
	pool    *pool
	clients []client
	direct  []client // fleet_mixed: one stream client per replica, by owner index
	ref     *reference
	next    atomic.Int64
}

// A phase alternates slices of the workload with slices of the
// reference load (reference.go); one of each is a pair, and the gated
// timing metrics are medians over a phase's pairs of workload ÷
// reference. Half a second of workload is two orders of magnitude above
// the longest request (a 64-plan batch, 5-7 ms), so a slice's ragged
// start and drained end are 1-2% of it; the reference gets half that,
// which leaves two thirds of a phase measuring the program.
type pair struct{ work, ref sliceStat }

// phaseResult is what one phase of the loop measured. Counts, latencies
// and process use are the workload slices' alone.
type phaseResult struct {
	name              string
	attempted, failed int64
	plans             int64 // plans answered correctly
	firstErr          error
	latencies         []int64 // ns, estimate requests only
	pairs             []pair
	use               procUse
	spans             []span
}

// worker is one closed-loop caller's tally across a phase's slices.
type worker struct {
	attempted, failed int64
	firstErr          error
	lat               []int64
	spans             spanBuf
}

// directEvery is how often fleet_mixed also asks the owning replica
// directly and compares the two payloads.
const directEvery = 256

// run drives the loop for d in alternating slices. With a tracer, every
// request leaves a root span and every replayEvery-th is replayed
// through the layers.
func (ls *loopState) run(name string, cfg config, d time.Duration, rp *replayer) phaseResult {
	out := phaseResult{name: name}
	workers := make([]worker, ls.spec.conns*ls.spec.depth)
	for deadline := time.Now().Add(d); time.Now().Before(deadline); {
		work, use := ls.workSlice(workers, cfg.workSlice, rp)
		ref, failed, err := ls.ref.slice(cfg.refSlice)
		out.pairs = append(out.pairs, pair{work, ref})
		out.use.add(use)
		out.plans += work.units
		out.attempted, out.failed = out.attempted+failed, out.failed+failed // a wrong reference answer fails the run too
		if out.firstErr == nil {
			out.firstErr = err
		}
	}
	for i := range workers {
		out.attempted += workers[i].attempted
		out.failed += workers[i].failed
		if out.firstErr == nil {
			out.firstErr = workers[i].firstErr
		}
		out.latencies = append(out.latencies, workers[i].lat...)
		out.spans = append(out.spans, workers[i].spans...)
	}
	return out
}

// workSlice runs every worker's closed loop for d and waits for the
// requests in flight at the end. The memory statistics are read outside
// the timed window: reading them stops the world.
func (ls *loopState) workSlice(workers []worker, d time.Duration, rp *replayer) (sliceStat, procUse) {
	seen := make([]int, len(workers)) // latencies each worker held before this slice
	for i := range workers {
		seen[i] = len(workers[i].lat)
	}
	var plansDone atomic.Int64
	before := readProc()
	deadline := before.at.Add(d)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func(pw *worker, cl client) {
			defer wg.Done()
			for {
				t0 := time.Now()
				if !t0.Before(deadline) {
					return
				}
				k := ls.next.Add(1) - 1
				r := ls.pool.pick(k)
				resp, err := cl.estimate(r)
				t1 := time.Now()
				pw.attempted++
				ok := err == nil && ls.pool.checkResponse(resp, r, ls.spec.all)
				if ok && ls.direct != nil && k%directEvery == 0 {
					var directResp []byte
					if directResp, err = ls.direct[r.owner].estimate(r); err == nil && !samePayload(resp, directResp) {
						err = fmt.Errorf("router and replica payloads differ for request %d", k)
					}
					ok = err == nil
				}
				if ok && r.observe != nil {
					err = cl.observe(r)
					ok = err == nil
				}
				if !ok {
					pw.failed++
					if pw.firstErr == nil {
						if err == nil {
							err = fmt.Errorf("request %d: served total differs from the in-process value", k)
						}
						pw.firstErr = err
					}
					continue
				}
				plansDone.Add(int64(len(r.plans)))
				pw.lat = append(pw.lat, int64(t1.Sub(t0)))
				if rp != nil {
					pw.spans.add(0, uint64(k), rp.rootName, t0, t1)
					if k%replayEvery == 0 {
						rp.replay(&pw.spans, uint64(k), ls.pool.pick(k+ls.pool.halfCycle()))
					}
				}
			}
		}(&workers[w], ls.clients[w/ls.spec.depth])
	}
	wg.Wait()
	end, cpu := time.Now(), processCPU()
	after := readProc()
	after.at, after.cpu = end, cpu
	use := after.since(before)
	var lat []int64
	for i := range workers {
		lat = append(lat, workers[i].lat[seen[i]:]...)
	}
	return sliceStat{wall: use.wall, cpu: use.cpu, units: plansDone.Load(), latP50: summarizeLatencies(lat).p50}, use
}

// samePayload compares a routed response with the owning replica's own
// answer byte for byte, up to the cache counters: those describe the
// replica's cache at the moment it computed the answer, and the router
// may be replaying an answer from before that cache was warm.
func samePayload(a, b []byte) bool {
	cut := func(p []byte) []byte {
		if i := bytes.LastIndex(p, []byte(`,"cache_hits":`)); i >= 0 {
			return p[:i]
		}
		return p
	}
	return bytes.Equal(cut(a), cut(b))
}

func openLoop(spec *workloadSpec, tgt *target, p *pool) (*loopState, error) {
	ls := &loopState{spec: spec, pool: p}
	var err error
	if ls.ref, err = startReference(p, spec.conns*spec.depth); err != nil {
		return nil, err
	}
	for i := 0; i < spec.conns; i++ {
		cl, err := spec.dial(tgt)
		if err != nil {
			ls.close()
			return nil, err
		}
		ls.clients = append(ls.clients, cl)
	}
	if tgt.router != nil {
		for _, r := range tgt.replicas {
			cl, err := stream.Dial(r.ss.Addr())
			if err != nil {
				ls.close()
				return nil, err
			}
			ls.direct = append(ls.direct, streamClient{cl})
		}
	}
	return ls, nil
}

func (ls *loopState) close() {
	ls.ref.close()
	for _, cl := range ls.clients {
		cl.close()
	}
	for _, cl := range ls.direct {
		cl.close()
	}
}
