package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// The reference load is the benchmark's own fixed piece of work, run in
// short slices between slices of the workload, so that every timing of
// the program under test has next to it a timing of code that cannot
// change, taken on the same CPUs within the same second. The gated
// timing metrics are the ratios of the two.
//
// Why: this benchmark runs on a few vCPUs of a shared host, and what the
// neighbours do moves every timing by 20-35% for stretches of a minute
// or more — longer than a run, so neither a longer phase nor a better
// estimator over one run's intervals removes it (README, "Why ratios").
// It is not CPU taken away (steal is mostly 0 while it happens) but CPU
// made slower, by different amounts for different code: a register-only
// kernel barely notices, a pointer chase through 8 MB doubles. So the
// reference has to be the same kind of code as the workload. It is a
// request/response service built from the standard library alone — an
// http.Server on loopback whose handler decodes the workload's own
// request bodies with encoding/json, walks the decoded tree and answers
// with its weight — driven closed-loop by as many callers as the
// workload keeps requests in flight (2, or 2 x 64), so that its latency
// is service time where the workload's is and queueing where the
// workload's is: syscalls, goroutine handoffs, allocation and
// pointer-heavy decoding in about the workload's proportions. It imports
// nothing from the repository, so no change to the program under test
// can move it.
type reference struct {
	hs      *http.Server
	url     string
	clients []*http.Client
	bodies  [][]byte
	want    [][]byte
	next    atomic.Int64
}

// referenceBodies is how many of the workload's request bodies the
// reference cycles through, taken evenly across the pool.
const referenceBodies = 256

// referenceAnswer is the reference service's whole computation: decode
// the body into the generic tree and weigh it.
func referenceAnswer(body []byte) ([]byte, error) {
	var v any
	if err := json.Unmarshal(body, &v); err != nil {
		return nil, err
	}
	return strconv.AppendInt(nil, weigh(v), 10), nil
}

// weigh counts a decoded tree's scalars and the bytes of its keys and
// strings: integers, so the order maps iterate in cannot change it.
func weigh(v any) (n int64) {
	switch x := v.(type) {
	case []any:
		for _, e := range x {
			n += weigh(e)
		}
	case map[string]any:
		for k, e := range x {
			n += int64(len(k)) + weigh(e)
		}
	case string:
		n = int64(len(x))
	default:
		n = 1
	}
	return n
}

// startReference stands the service up and opens one keep-alive
// connection per caller: HTTP/1.1 has one request in flight on each.
func startReference(p *pool, callers int) (*reference, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &reference{url: "http://" + ln.Addr().String() + "/"}
	r.hs = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		body, err := io.ReadAll(req.Body)
		if err == nil {
			body, err = referenceAnswer(body)
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Write(body)
	})}
	go r.hs.Serve(ln) // returns when close() closes the server
	n := min(len(p.requests), referenceBodies)
	for i := 0; i < n; i++ {
		body := p.requests[i*len(p.requests)/n].body
		want, err := referenceAnswer(body)
		if err != nil {
			r.close()
			return nil, fmt.Errorf("reference load: %w", err)
		}
		r.bodies, r.want = append(r.bodies, body), append(r.want, want)
	}
	for i := 0; i < callers; i++ {
		tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
		r.clients = append(r.clients, &http.Client{Transport: tr})
	}
	return r, nil
}

func (r *reference) close() {
	for _, c := range r.clients {
		c.CloseIdleConnections()
	}
	r.hs.Close()
}

// sliceStat is what one slice of either load measured: units of work
// (plans answered correctly, or reference requests), the wall clock and
// process CPU they took, and the median request latency.
type sliceStat struct {
	wall, cpu time.Duration
	units     int64
	latP50    float64 // µs
}

func (s sliceStat) perSecond() float64 { return ratio(float64(s.units), s.wall.Seconds()) }
func (s sliceStat) cpuMicros() float64 { return ratio(float64(s.cpu.Microseconds()), float64(s.units)) }

// slice drives the reference closed-loop for d, one caller per
// connection, and checks every answer.
func (r *reference) slice(d time.Duration) (st sliceStat, failed int64, firstErr error) {
	type perConn struct {
		lat      []int64
		failed   int64
		firstErr error
	}
	res := make([]perConn, len(r.clients))
	start, cpu := time.Now(), processCPU()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for i, c := range r.clients {
		wg.Add(1)
		go func(pc *perConn, c *http.Client) {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				t0 := time.Now()
				if !t0.Before(deadline) {
					return
				}
				k := int(r.next.Add(1)-1) % len(r.bodies)
				err := r.post(c, &buf, r.bodies[k])
				if err == nil && !bytes.Equal(buf.Bytes(), r.want[k]) {
					err = fmt.Errorf("reference load: body %d answered %q, want %q", k, buf.Bytes(), r.want[k])
				}
				if err != nil {
					pc.failed++
					if pc.firstErr == nil {
						pc.firstErr = err
					}
					continue
				}
				pc.lat = append(pc.lat, int64(time.Since(t0)))
			}
		}(&res[i], c)
	}
	wg.Wait()
	st.wall, st.cpu = time.Since(start), processCPU()-cpu
	var lat []int64
	for i := range res {
		lat = append(lat, res[i].lat...)
		failed += res[i].failed
		if firstErr == nil {
			firstErr = res[i].firstErr
		}
	}
	st.units, st.latP50 = int64(len(lat)), summarizeLatencies(lat).p50
	return st, failed, firstErr
}

func (r *reference) post(c *http.Client, buf *bytes.Buffer, body []byte) error {
	resp, err := c.Post(r.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("reference load: status %d: %s", resp.StatusCode, bytes.TrimSpace(buf.Bytes()))
	}
	return err
}
