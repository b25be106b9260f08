package stream_test

import (
	"bytes"
	"context"
	"net/http/httptest"
	"testing"

	"repro/internal/serve"
	"repro/internal/stream"
)

// TestFrameCarriesEveryEstimateBody: a frame carries exactly the bodies
// POST /estimate accepts. A body of serve.MaxEstimateBody bytes — a
// valid request padded with whitespace — gets the bytes POST /estimate
// answers (on a warm prediction cache, so a computed answer is the
// same bytes however often it is asked). One byte more is refused by
// the client before anything is written: the server reads no frame of
// it, and the connection carries on.
func TestFrameCarriesEveryEstimateBody(t *testing.T) {
	svc, srv := newStream(t, serve.Options{}, stream.Options{})
	httpSrv := httptest.NewServer(svc.Handler())
	t.Cleanup(httpSrv.Close)
	cl := dial(t, srv)
	ctx := context.Background()

	small := requestBody(t, &stream.Request{Resource: "cpu", Plan: planJSON(t, testPlans[0])})
	post(t, httpSrv.URL, small)
	at := append(bytes.Clone(small), bytes.Repeat([]byte{' '}, serve.MaxEstimateBody-len(small))...)
	want := post(t, httpSrv.URL, at)
	got, err := cl.EstimateBytes(ctx, at)
	if err != nil {
		t.Fatalf("a %d-byte body: %v", len(at), err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("a %d-byte body: the stream answered\n%.300s\nPOST /estimate\n%.300s", len(at), got, want)
	}

	before := srv.Stats().Requests
	if _, err := cl.EstimateBytes(ctx, append(at, ' ')); err == nil {
		t.Fatalf("a %d-byte body was sent", len(at)+1)
	}
	if err := cl.Err(); err != nil {
		t.Fatalf("the refused body took the connection down: %v", err)
	}
	if got, err = cl.EstimateBytes(ctx, small); err != nil {
		t.Fatalf("the request after the refused body: %v", err)
	}
	if n := srv.Stats().Requests - before; n != 1 {
		t.Errorf("the server read %d frames for the refused body and the one after, want 1", n)
	}
}
