package cluster_test

import (
	"bytes"
	"context"
	"net/http"
	"testing"

	"repro/internal/cluster"
	"repro/internal/plan"
	"repro/internal/serve"
	"repro/internal/stream"
)

// padded is body with whitespace appended up to n bytes: the same
// request, n bytes long.
func padded(body []byte, n int) []byte {
	return append(bytes.Clone(body), bytes.Repeat([]byte{' '}, n-len(body))...)
}

// TestRouterBodyBounds pins the router to its replicas' body bounds,
// which are serve's. A POST /estimate body of exactly
// serve.MaxEstimateBody bytes — a valid estimate padded with whitespace
// — is answered as a replica answers it, over HTTP and over the
// router's stream listener, and both replicas stay in rotation. One
// byte more is refused by a replica and the router with the same
// envelope. A 9 MiB batch, past the single-estimate bound and under
// serve.MaxBatchBody, is answered as a replica answers it. A rollback
// body is read whole: at serve.MaxPublishBody bytes the router's
// fan-out answers as a replica does, and one byte more is refused by
// both alike, though the JSON in it ends early. Every replica holds the
// plan's operators in its prediction cache before a body is sent, so
// whichever answers, the answer is the same bytes.
func TestRouterBodyBounds(t *testing.T) {
	setup(t)
	reg := serve.NewRegistry()
	reg.Publish("tpch", cpuEst)
	reps := []*testReplica{newTestReplicaWith(t, reg), newTestReplicaWith(t, reg)}
	rt, rhs := newRouter(t, reps, func(o *cluster.Options) { o.CacheEntries = -1 })
	raddr, err := rt.StartStream("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl, err := stream.Dial(raddr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for _, rep := range reps {
		if _, err := rep.svc.Estimate(context.Background(),
			serve.Request{Schema: "tpch", Resource: plan.CPUTime, Plan: testPlans[0]}); err != nil {
			t.Fatal(err)
		}
	}

	at := padded(estimateBody(t, "tpch", testPlans[0], "cpu"), serve.MaxEstimateBody)
	want := httpAnswer(t, reps[0].hs.URL, at)
	if want.status != http.StatusOK {
		t.Fatalf("a replica answered a %d-byte estimate %v, want 200", len(at), want)
	}
	if got := httpAnswer(t, rhs.URL, at); got != want {
		t.Errorf("router HTTP answered a %d-byte estimate %v; the replica answered %v", len(at), got, want)
	}
	if got := streamAnswer(t, cl, at); got != want {
		t.Errorf("router stream answered a %d-byte estimate %v; the replica answered %v", len(at), got, want)
	}
	for _, r := range rt.Metrics().Replicas {
		if !r.Healthy || r.Errors != 0 {
			t.Errorf("replica after estimates at the bound: %+v, want healthy with no errors", r)
		}
	}

	over := append(at, ' ')
	refused := postRefused(t, reps[0].hs.URL, "/estimate", "over-the-bound", over)
	if refused.status != http.StatusBadRequest || refused.Code != serve.CodeBadRequest {
		t.Fatalf("a replica refused a %d-byte estimate with %+v, want 400 bad_request", len(over), refused)
	}
	if got := postRefused(t, rhs.URL, "/estimate", "over-the-bound", over); got != refused {
		t.Errorf("router refused a %d-byte estimate with %+v; the replica with %+v", len(over), got, refused)
	}

	batch := padded(batchBody(t, "tpch", testPlans[:1]), 9<<20)
	wantBatch := postOK(t, reps[0].hs.URL, "/estimate/batch", batch)
	if got := postOK(t, rhs.URL, "/estimate/batch", batch); !bytes.Equal(got, wantBatch) {
		t.Errorf("router answered a 9 MiB batch\n%s\nthe replica\n%s", got, wantBatch)
	}

	rollback := padded([]byte(`{"schema":"tpch","resource":"cpu"}`), serve.MaxPublishBody)
	for i, body := range [][]byte{rollback, append(rollback, ' ')} {
		want := postRefused(t, reps[0].hs.URL, "/models/rollback", "rollback-bound", body)
		if code := []string{serve.CodeNoHistory, serve.CodeBadRequest}[i]; want.Code != code {
			t.Fatalf("a replica refused a %d-byte rollback with %+v, want %s", len(body), want, code)
		}
		if got := postRefused(t, rhs.URL, "/models/rollback", "rollback-bound", body); got != want {
			t.Errorf("router refused a %d-byte rollback with %+v; the replica with %+v", len(body), got, want)
		}
	}
}
