package serve_test

// Tests for the multi-resource estimation pipeline and the store-backed
// model lifecycle: one-pass fan-out must be bit-identical to
// single-resource requests, single-resource responses must keep their
// exact pre-multi-resource wire shape, unknown resources must yield the
// structured error envelope on every endpoint, and publish / restore /
// rollback must flow through internal/store snapshots.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"repro/internal/feedback"
	"repro/internal/plan"
	"repro/internal/serve"
	"repro/internal/store"
)

func newMultiService(t *testing.T, entries int) *serve.Service {
	t.Helper()
	reg := serve.NewRegistry()
	svc := newService(t, serve.Options{Registry: reg, CacheEntries: entries})
	reg.Publish("tpch", cpuEst)
	reg.Publish("tpch", ioEst)
	return svc
}

// TestMultiResourceMatchesSingle is the acceptance property: an
// "all"-resources request returns, per operator and per total, exactly
// the values the corresponding single-resource requests return — bit
// for bit, cached or not.
func TestMultiResourceMatchesSingle(t *testing.T) {
	for _, entries := range []int{-1, 4096} {
		svc := newMultiService(t, entries)
		ctx := context.Background()
		for _, p := range testPlans {
			all, err := svc.Estimate(ctx, serve.Request{Schema: "tpch", Resources: plan.ResourceKinds(), Plan: p})
			if err != nil {
				t.Fatal(err)
			}
			cpu, err := svc.Estimate(ctx, serve.Request{Schema: "tpch", Resource: plan.CPUTime, Plan: p})
			if err != nil {
				t.Fatal(err)
			}
			io, err := svc.Estimate(ctx, serve.Request{Schema: "tpch", Resource: plan.LogicalIO, Plan: p})
			if err != nil {
				t.Fatal(err)
			}

			if len(all.Models) != 2 || all.Models[0].Resource != "CPU" || all.Models[1].Resource != "IO" {
				t.Fatalf("multi response models: %+v", all.Models)
			}
			if len(all.Resources) != 2 || all.Resources[0] != "cpu" || all.Resources[1] != "io" {
				t.Fatalf("multi response resources: %v", all.Resources)
			}
			if all.Model != all.Models[0] {
				t.Fatal("primary model is not the first requested resource's")
			}
			if math.Float64bits(all.Total) != math.Float64bits(cpu.Total) {
				t.Fatalf("primary total %v != cpu total %v", all.Total, cpu.Total)
			}
			if math.Float64bits(all.Totals[0]) != math.Float64bits(cpu.Total) ||
				math.Float64bits(all.Totals[1]) != math.Float64bits(io.Total) {
				t.Fatalf("totals %+v != singles (%v, %v)", all.Totals, cpu.Total, io.Total)
			}
			for i := range all.Operators {
				a, c, o := all.Operators[i], cpu.Operators[i], io.Operators[i]
				if math.Float64bits(a.Estimate) != math.Float64bits(c.Estimate) ||
					math.Float64bits(a.Estimates[0]) != math.Float64bits(c.Estimate) ||
					math.Float64bits(a.Estimates[1]) != math.Float64bits(o.Estimate) {
					t.Fatalf("cache=%d operator %d: multi %+v vs cpu %+v io %+v", entries, i, a, c, o)
				}
			}
			for i := range all.Pipelines {
				a, c, o := all.Pipelines[i], cpu.Pipelines[i], io.Pipelines[i]
				if math.Float64bits(a.Estimates[0]) != math.Float64bits(c.Estimate) ||
					math.Float64bits(a.Estimates[1]) != math.Float64bits(o.Estimate) {
					t.Fatalf("pipeline %d: multi %+v vs cpu %+v io %+v", i, a, c, o)
				}
			}
		}
	}
}

// TestMultiResourceBatchMatchesSingle extends the property to the
// batched path, and checks multi-resource batches share cache entries
// with multi-resource single requests.
func TestMultiResourceBatchMatchesSingle(t *testing.T) {
	svc := newMultiService(t, 1<<14)
	ctx := context.Background()
	all, err := svc.EstimateBatch(ctx, serve.BatchRequest{Schema: "tpch", Resources: plan.ResourceKinds(), Plans: testPlans})
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := svc.EstimateBatch(ctx, serve.BatchRequest{Schema: "tpch", Resource: plan.CPUTime, Plans: testPlans})
	if err != nil {
		t.Fatal(err)
	}
	io, err := svc.EstimateBatch(ctx, serve.BatchRequest{Schema: "tpch", Resource: plan.LogicalIO, Plans: testPlans})
	if err != nil {
		t.Fatal(err)
	}
	for i := range all.Plans {
		a, c, o := all.Plans[i], cpu.Plans[i], io.Plans[i]
		if math.Float64bits(a.Totals[0]) != math.Float64bits(c.Total) ||
			math.Float64bits(a.Totals[1]) != math.Float64bits(o.Total) {
			t.Fatalf("plan %d: batch totals %+v vs singles (%v, %v)", i, a.Totals, c.Total, o.Total)
		}
		for j := range a.Operators {
			if math.Float64bits(a.Operators[j].Estimates[0]) != math.Float64bits(c.Operators[j].Estimate) ||
				math.Float64bits(a.Operators[j].Estimates[1]) != math.Float64bits(o.Operators[j].Estimate) {
				t.Fatalf("plan %d op %d: per-resource mismatch", i, j)
			}
		}
	}
	// A multi-resource single request after a multi-resource batch is
	// all hits (same version-vector keys).
	warm, err := svc.Estimate(ctx, serve.Request{Schema: "tpch", Resources: plan.ResourceKinds(), Plan: testPlans[0]})
	if err != nil {
		t.Fatal(err)
	}
	if warm.CacheMisses != 0 {
		t.Fatalf("multi request after multi batch: %d misses, want 0", warm.CacheMisses)
	}
}

// TestMultiResourceHTTP drives the wire: resources:"all" and
// resources:["io","cpu"] against single-resource requests.
func TestMultiResourceHTTP(t *testing.T) {
	svc := newMultiService(t, 4096)
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	planJSON, err := plan.EncodeJSON(testPlans[0])
	if err != nil {
		t.Fatal(err)
	}
	post := func(body string) (int, map[string]any) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/estimate", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, out
	}

	code, all := post(fmt.Sprintf(`{"schema":"tpch","resources":"all","plan":%s}`, planJSON))
	if code != http.StatusOK {
		t.Fatalf("resources all: status %d (%v)", code, all)
	}
	code, cpuResp := post(fmt.Sprintf(`{"schema":"tpch","resource":"cpu","plan":%s}`, planJSON))
	if code != http.StatusOK {
		t.Fatal("cpu request failed")
	}
	code, ioResp := post(fmt.Sprintf(`{"schema":"tpch","resource":"io","plan":%s}`, planJSON))
	if code != http.StatusOK {
		t.Fatal("io request failed")
	}

	names, ok := all["resources"].([]any)
	if !ok || len(names) != 2 || names[0] != "cpu" || names[1] != "io" {
		t.Fatalf("multi response resources: %v", all["resources"])
	}
	totals, ok := all["totals"].([]any)
	if !ok || len(totals) != 2 {
		t.Fatalf("multi response missing totals: %v", all)
	}
	if totals[0] != cpuResp["total"] || totals[1] != ioResp["total"] {
		t.Fatalf("wire totals %v != singles (%v, %v)", totals, cpuResp["total"], ioResp["total"])
	}
	if _, ok := all["models"].([]any); !ok {
		t.Fatal("multi response missing models")
	}

	// Array form, order swapped: io becomes the primary resource.
	code, swapped := post(fmt.Sprintf(`{"schema":"tpch","resources":["io","cpu"],"plan":%s}`, planJSON))
	if code != http.StatusOK {
		t.Fatal("swapped request failed")
	}
	if swapped["total"] != ioResp["total"] {
		t.Fatalf("primary total %v, want io total %v", swapped["total"], ioResp["total"])
	}
}

// TestSingleResourceWireCompat pins the compatibility guarantee: a
// single-resource response must not grow any multi-resource field — its
// JSON key set is exactly the pre-multi-resource one.
func TestSingleResourceWireCompat(t *testing.T) {
	svc := newMultiService(t, 4096)
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	planJSON, err := plan.EncodeJSON(testPlans[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, body := range []string{
		fmt.Sprintf(`{"schema":"tpch","resource":"io","plan":%s}`, planJSON),
		fmt.Sprintf(`{"schema":"tpch","resources":["io"],"plan":%s}`, planJSON), // one-element set = single
	} {
		resp, err := http.Post(srv.URL+"/estimate", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := readAll(resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, raw)
		}
		var top map[string]json.RawMessage
		if err := json.Unmarshal(raw, &top); err != nil {
			t.Fatal(err)
		}
		for _, forbidden := range []string{"models", "totals", "resources"} {
			if _, ok := top[forbidden]; ok {
				t.Fatalf("single-resource response grew %q: %s", forbidden, raw)
			}
		}
		for _, required := range []string{"model", "total", "operators", "pipelines", "cache_hits", "cache_misses"} {
			if _, ok := top[required]; !ok {
				t.Fatalf("single-resource response lost %q: %s", required, raw)
			}
		}
		if bytes.Contains(raw, []byte(`"estimates"`)) {
			t.Fatalf("single-resource response grew per-operator estimates: %s", raw)
		}
	}
}

func readAll(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, err := buf.ReadFrom(resp.Body)
	return buf.Bytes(), err
}

// TestUnknownResourceEnvelope: every endpoint that parses a resource
// must answer an unknown name with the structured {error, code} JSON
// envelope carrying code "unknown_resource" — never a bare 400 string.
func TestUnknownResourceEnvelope(t *testing.T) {
	setup(t)
	// A feedback loop is attached so POST /observe reaches its resource
	// parsing (without one it answers 403 before looking at the body).
	loop, err := feedback.New(feedback.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { loop.Close() })
	reg := serve.NewRegistry()
	svc := newService(t, serve.Options{Registry: reg, Feedback: loop})
	reg.Publish("tpch", cpuEst)
	reg.Publish("tpch", ioEst)
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	planJSON, err := plan.EncodeJSON(testPlans[0])
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ path, body string }{
		{"/estimate", fmt.Sprintf(`{"schema":"tpch","resource":"disk","plan":%s}`, planJSON)},
		{"/estimate", fmt.Sprintf(`{"schema":"tpch","resources":["cpu","disk"],"plan":%s}`, planJSON)},
		{"/estimate", fmt.Sprintf(`{"schema":"tpch","resources":"garbage","plan":%s}`, planJSON)},
		// An explicit empty array is an invalid set, not "field absent":
		// it must error rather than silently degrade to the cpu default.
		{"/estimate", fmt.Sprintf(`{"schema":"tpch","resources":[],"plan":%s}`, planJSON)},
		{"/estimate/batch", fmt.Sprintf(`{"schema":"tpch","resources":[],"plans":[%s]}`, planJSON)},
		{"/estimate/batch", fmt.Sprintf(`{"schema":"tpch","resource":"disk","plans":[%s]}`, planJSON)},
		{"/estimate/batch", fmt.Sprintf(`{"schema":"tpch","resources":["disk"],"plans":[%s]}`, planJSON)},
		{"/observe", fmt.Sprintf(`{"schema":"tpch","resource":"disk","plan":%s}`, planJSON)},
		{"/models/rollback", `{"schema":"tpch","resource":"disk"}`},
	}
	for _, tc := range cases {
		resp, err := http.Post(srv.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := readAll(resp)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400 (%s)", tc.path, resp.StatusCode, raw)
		}
		var e struct {
			Error string `json:"error"`
			Code  string `json:"code"`
		}
		if err := json.Unmarshal(raw, &e); err != nil {
			t.Fatalf("%s: non-JSON error body %q: %v", tc.path, raw, err)
		}
		if e.Code != "unknown_resource" || e.Error == "" {
			t.Fatalf("%s: envelope %+v, want code unknown_resource", tc.path, e)
		}
	}

	// The service API rejects invalid kinds the same way (programmatic
	// misuse cannot bypass the envelope).
	_, err = svc.Estimate(context.Background(), serve.Request{Schema: "tpch", Resource: plan.ResourceKind(7), Plan: testPlans[0]})
	if !errors.Is(err, serve.ErrUnknownResource) {
		t.Fatalf("service-level invalid kind yielded %v", err)
	}
}

// TestStorePublishRestoreRollback is the store-backed lifecycle
// acceptance test: bootstrap-style and upload-style publishes persist
// snapshots, a fresh registry over the same store restores the exact
// serving set after a "process restart", and rollback walks snapshot
// history across that restart.
func TestStorePublishRestoreRollback(t *testing.T) {
	altSetup(t)
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}

	// Process 1: bootstrap cpu(A) + io, then upload a new cpu(B).
	reg1 := serve.NewRegistry()
	reg1.AttachStore(st, t.Logf)
	infoA := reg1.PublishAs("tpch", cpuEst, "bootstrap")
	if infoA.Snapshot == 0 {
		t.Fatal("bootstrap publish did not persist a snapshot")
	}
	infoIO := reg1.PublishAs("tpch", ioEst, "bootstrap")
	infoB := reg1.PublishAs("tpch", cpuEst2, "upload")
	if !(infoA.Snapshot < infoIO.Snapshot && infoIO.Snapshot < infoB.Snapshot) {
		t.Fatalf("snapshot versions not monotone: %d %d %d", infoA.Snapshot, infoIO.Snapshot, infoB.Snapshot)
	}
	// The upload's snapshot must be coherent: cpu(B) alongside the
	// incumbent io model.
	loaded, err := st.LoadVersion(infoB.Snapshot)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Models) != 2 {
		t.Fatalf("upload snapshot holds %d models, want the coherent pair", len(loaded.Models))
	}
	if loaded.Manifest.Source != "upload" {
		t.Fatalf("snapshot source %q", loaded.Manifest.Source)
	}

	// Process 2: a fresh registry (simulated restart) restores from the
	// same store.
	st2, err := store.Open(dir, store.Options{Retain: 1})
	if err != nil {
		t.Fatal(err)
	}
	reg2 := serve.NewRegistry()
	reg2.AttachStore(st2, t.Logf)
	restored, err := reg2.RestoreFromStore()
	if err != nil {
		t.Fatal(err)
	}
	if len(restored) != 2 {
		t.Fatalf("restored %d models, want 2", len(restored))
	}
	m, ok := reg2.Lookup("tpch", plan.CPUTime)
	if !ok {
		t.Fatal("no cpu model after restore")
	}
	p := testPlans[0]
	if math.Float64bits(m.Est.PredictPlan(p)) != math.Float64bits(cpuEst2.PredictPlan(p)) {
		t.Fatal("restore did not resume the latest (uploaded) cpu model")
	}

	// Rollback after restart: must restore cpu(A) from snapshot
	// history — the in-memory history stack died with process 1.
	rb, err := reg2.Rollback("tpch", plan.CPUTime)
	if err != nil {
		t.Fatal(err)
	}
	m, _ = reg2.Lookup("tpch", plan.CPUTime)
	if math.Float64bits(m.Est.PredictPlan(p)) != math.Float64bits(cpuEst.PredictPlan(p)) {
		t.Fatal("rollback did not restore the previous cpu model from the store")
	}
	if rb.Snapshot == 0 || rb.Snapshot >= infoB.Snapshot {
		t.Fatalf("rollback snapshot v%d not older than v%d", rb.Snapshot, infoB.Snapshot)
	}
	// The io route is untouched by the cpu rollback.
	mio, _ := reg2.Lookup("tpch", plan.LogicalIO)
	if math.Float64bits(mio.Est.PredictPlan(p)) != math.Float64bits(ioEst.PredictPlan(p)) {
		t.Fatal("cpu rollback disturbed the io model")
	}
	// Walking past the oldest distinct cpu model is ErrNoHistory, not a
	// ping-pong back to B.
	if _, err := reg2.Rollback("tpch", plan.CPUTime); !errors.Is(err, serve.ErrNoHistory) {
		t.Fatalf("second rollback yielded %v, want ErrNoHistory", err)
	}

	// GC pressure must never remove the snapshot a rollback serves
	// from: the registry pinned it and the serving record names it, so
	// it outlives a retention of one.
	if _, err := st2.GC(); err != nil {
		t.Fatal(err)
	}
	if _, err := st2.Manifest(rb.Snapshot); err != nil {
		t.Fatalf("serving snapshot v%d gone after GC: %v", rb.Snapshot, err)
	}

	// Process 3: a restart *after* the rollback must resume the
	// rolled-back serving state (the durable serving-cursor record),
	// not bounce back to the newest snapshot.
	st3, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reg3 := serve.NewRegistry()
	reg3.AttachStore(st3, t.Logf)
	if _, err := reg3.RestoreFromStore(); err != nil {
		t.Fatal(err)
	}
	m, _ = reg3.Lookup("tpch", plan.CPUTime)
	if math.Float64bits(m.Est.PredictPlan(p)) != math.Float64bits(cpuEst.PredictPlan(p)) {
		t.Fatal("restart after rollback resumed the rolled-away-from model")
	}
	mio, _ = reg3.Lookup("tpch", plan.LogicalIO)
	if math.Float64bits(mio.Est.PredictPlan(p)) != math.Float64bits(ioEst.PredictPlan(p)) {
		t.Fatal("restart after rollback lost the io model")
	}
}

// TestRollbackMemoryFallback covers the two cases where the in-memory
// history stack must back the store up: history predating the store
// attach, and history whose snapshot persist failed.
func TestRollbackMemoryFallback(t *testing.T) {
	altSetup(t)
	p := testPlans[0]

	// Case 1: models published before AttachStore — the store has no
	// snapshots, the memory stack has the history.
	reg := serve.NewRegistry()
	reg.Publish("tpch", cpuEst)
	reg.Publish("tpch", cpuEst2)
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reg.AttachStore(st, t.Logf)
	if _, err := reg.Rollback("tpch", plan.CPUTime); err != nil {
		t.Fatalf("rollback with pre-attach history failed: %v", err)
	}
	m, _ := reg.Lookup("tpch", plan.CPUTime)
	if math.Float64bits(m.Est.PredictPlan(p)) != math.Float64bits(cpuEst.PredictPlan(p)) {
		t.Fatal("fallback rollback did not restore the prior model")
	}

	// Case 2: a snapshot persist fails (store directory vanished) —
	// the schema turns dirty and rollback must trust the memory stack,
	// not the stale snapshot history.
	dir := t.TempDir()
	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reg2 := serve.NewRegistry()
	reg2.AttachStore(st2, t.Logf)
	reg2.PublishAs("tpch", cpuEst, "bootstrap") // snapshot v1 persists
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	info := reg2.PublishAs("tpch", cpuEst2, "upload") // persist fails → dirty
	if info.Snapshot != 0 {
		t.Fatalf("publish with a dead store claimed snapshot v%d", info.Snapshot)
	}
	if _, err := reg2.Rollback("tpch", plan.CPUTime); err != nil {
		t.Fatalf("rollback on dirty schema failed: %v", err)
	}
	m, _ = reg2.Lookup("tpch", plan.CPUTime)
	if math.Float64bits(m.Est.PredictPlan(p)) != math.Float64bits(cpuEst.PredictPlan(p)) {
		t.Fatal("dirty-schema rollback did not restore the prior model from memory")
	}
}

// TestStoreRetrainPublish routes a feedback-style publish through the
// registry's Publisher interface and checks it lands in the store with
// source "retrain".
func TestStoreRetrainPublish(t *testing.T) {
	altSetup(t)
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reg := serve.NewRegistry()
	reg.AttachStore(st, nil)
	reg.PublishAs("tpch", cpuEst, "bootstrap")
	version := reg.PublishEstimator("tpch", cpuEst2) // the feedback.Publisher entry point
	if version == 0 {
		t.Fatal("retrain publish failed")
	}
	mans, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	last := mans[len(mans)-1]
	if last.Source != "retrain" {
		t.Fatalf("retrain snapshot source %q", last.Source)
	}
}
