package serve_test

// Tests for the one error envelope: README's error table against the
// code→status table, the refusal of an estimate that does not encode on
// every HTTP estimate path, Retry-After on every unavailable, and a
// feedback loop fed such an estimate's plan.

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/feedback"
	"repro/internal/plan"
	"repro/internal/serve"
)

// TestErrorTableMatchesREADME fails when a code is missing from
// README's error table, when a row there names no code, or when a
// row's status differs from the one the code is answered with.
func TestErrorTableMatchesREADME(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "Errors come back as a structured envelope")
	if !ok {
		t.Fatal("README has no error envelope section")
	}
	section, _, _ = strings.Cut(section, "\n### ")
	row := regexp.MustCompile("^\\| `([a-z_]+)` \\| ([0-9]{3}) \\|")
	listed := make(map[string]int)
	for _, line := range strings.Split(section, "\n") {
		if m := row.FindStringSubmatch(line); m != nil {
			status, _ := strconv.Atoi(m[2])
			listed[m[1]] = status
		}
	}
	for code, status := range serve.CodeStatus {
		switch got, ok := listed[code]; {
		case !ok:
			t.Errorf("code %s (%d) is not in README's error table", code, status)
		case got != status:
			t.Errorf("README lists %s as %d; it is answered %d", code, got, status)
		}
	}
	for code := range listed {
		if _, ok := serve.CodeStatus[code]; !ok {
			t.Errorf("README's error table lists %s, which is no code", code)
		}
	}
}

// overflowPlan is testPlans[0] with its row and page counts scaled so
// the largest is 1e306: a finite, valid plan whose CPU estimate
// overflows to +Inf, which no JSON encoder writes.
func overflowPlan(t testing.TB) *plan.Plan {
	t.Helper()
	setup(t)
	wire, err := plan.EncodeJSON(testPlans[0])
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.DecodeJSON(wire)
	if err != nil {
		t.Fatal(err)
	}
	var largest float64
	p.Walk(func(n *plan.Node) {
		largest = max(largest, n.TableRows, n.TablePages, n.Out.Rows, n.EstOut.Rows)
	})
	f := 1e306 / largest
	p.Walk(func(n *plan.Node) {
		n.TableRows *= f
		n.TablePages *= f
		n.Out.Rows *= f
		n.EstOut.Rows *= f
	})
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if total := cpuEst.PredictPlan(p); !math.IsInf(total, 1) {
		t.Fatalf("scaled plan's CPU estimate is %v, want +Inf", total)
	}
	return p
}

// TestUnencodableEstimateAnswers500 pins the refusal of an estimate
// that does not encode: POST /estimate, /estimate?explain=1 and
// /estimate/batch answer 500 internal in the stream's words — never a
// 200 with an empty body — and nothing is filed for a repeat to read.
func TestUnencodableEstimateAnswers500(t *testing.T) {
	p := overflowPlan(t)
	reg := serve.NewRegistry()
	reg.Publish("tpch", cpuEst)
	svc := newService(t, serve.Options{Registry: reg})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	wire, err := plan.EncodeJSON(p)
	if err != nil {
		t.Fatal(err)
	}
	single := map[string]any{"schema": "tpch", "resource": "cpu", "plan": json.RawMessage(wire)}
	batch := map[string]any{"schema": "tpch", "resource": "cpu", "plans": []json.RawMessage{wire}}
	for _, c := range []struct {
		path string
		body any
	}{
		{"/estimate", single},
		{"/estimate", single}, // a repeat: computed again, not replayed
		{"/estimate?explain=1", single},
		{"/estimate/batch", batch},
	} {
		resp, out := postJSON(t, ts.URL+c.path, c.body)
		var e serve.Error
		if err := json.Unmarshal(out, &e); err != nil {
			t.Fatalf("%s: status %d with a body that is no error envelope: %q", c.path, resp.StatusCode, out)
		}
		const msg = "encode response: json: unsupported value: +Inf"
		if resp.StatusCode != http.StatusInternalServerError || e.Code != serve.CodeInternal || e.Message != msg ||
			e.RequestID != resp.Header.Get(serve.RequestIDHeader) {
			t.Errorf("%s: %d %+v, want 500 internal %q with the request's ID", c.path, resp.StatusCode, e, msg)
		}
	}
	if hits, _ := svc.ReplayCounts(); hits != 0 {
		t.Errorf("%d replays of an answer that never encoded", hits)
	}
}

// TestUnavailableCarriesRetryAfter pins Retry-After: 1 on the 503s a
// replica answers itself: /healthz before any model is published, and
// an estimate after the service closed.
func TestUnavailableCarriesRetryAfter(t *testing.T) {
	setup(t)
	reg := serve.NewRegistry()
	svc := serve.New(serve.Options{Registry: reg})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	check := func(what string, resp *http.Response) {
		t.Helper()
		defer resp.Body.Close()
		var e serve.Error
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if resp.StatusCode != http.StatusServiceUnavailable || e.Code != serve.CodeUnavailable ||
			resp.Header.Get("Retry-After") != "1" {
			t.Errorf("%s: %d %s Retry-After %q, want 503 unavailable 1",
				what, resp.StatusCode, e.Code, resp.Header.Get("Retry-After"))
		}
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	check("healthz with no model", resp)

	reg.Publish("tpch", cpuEst)
	svc.Close()
	wire, err := plan.EncodeJSON(testPlans[0])
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(map[string]any{"schema": "tpch", "resource": "cpu", "plan": json.RawMessage(wire)})
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(ts.URL+"/estimate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	check("estimate after Close", resp)
}

// TestObserveOverflowLeavesWindowsFinite reports a plan whose estimate
// overflows, with finite actuals and no prediction of the client's: it
// is accepted and logged, but a +Inf prediction has no relative error,
// so nothing is scored — GET /metrics still encodes, and no window,
// coverage count or drift reading holds a NaN.
func TestObserveOverflowLeavesWindowsFinite(t *testing.T) {
	p := overflowPlan(t)
	p.Walk(func(n *plan.Node) { n.Actual.CPU = 1 })
	reg := serve.NewRegistry()
	reg.Publish("tpch", cpuEst)
	loop, err := feedback.New(feedbackTestOptions(reg, t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer loop.Close()
	svc := newService(t, serve.Options{Registry: reg, Feedback: loop})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/observe", "application/json", bytes.NewReader(observeBody(t, 0, 0, p)))
	if err != nil {
		t.Fatal(err)
	}
	out, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /observe: %d %s", resp.StatusCode, out)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	out, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var m serve.Metrics
	if err := json.Unmarshal(out, &m); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d %q: %v", resp.StatusCode, out, err)
	}
	if len(m.Feedback) != 1 {
		t.Fatalf("metrics carry %d feedback routes, want 1", len(m.Feedback))
	}
	r := m.Feedback[0]
	if r.Observations != 1 || r.Buffered != 1 {
		t.Errorf("route holds %d observations, %d buffered; want the one, buffered", r.Observations, r.Buffered)
	}
	if r.Window.Count != 0 || r.Coverage != nil {
		t.Errorf("an unscored observation reached the window %+v or coverage %+v", r.Window, r.Coverage)
	}
	if r.Drift != nil && math.IsNaN(r.Drift.RecentError) {
		t.Errorf("drift reads %v", r.Drift.RecentError)
	}
	if ex := loop.Exemplars(); len(ex) != 0 {
		t.Errorf("an unscored observation became exemplar %+v", ex[0])
	}
}
