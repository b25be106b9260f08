package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"testing"

	"repro/internal/plan"
	"repro/internal/serve"
	"repro/internal/stream"
)

// answer is what a surface said to one body: the bytes of a 200, or
// the code and message of a refusal, at the HTTP status the surface
// used — for the stream, the one serve.StatusForCode maps the code to.
type answer struct {
	status        int
	body          string
	code, message string
}

func (a answer) String() string {
	if a.status == http.StatusOK {
		return fmt.Sprintf("200 %.48s...", a.body)
	}
	return fmt.Sprintf("%d %s %q", a.status, a.code, a.message)
}

func httpAnswer(t *testing.T, url string, body []byte) answer {
	t.Helper()
	resp, err := http.Post(url+"/estimate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode == http.StatusOK {
		return answer{status: resp.StatusCode, body: string(out)}
	}
	var e stream.Error // the HTTP envelope has the same two fields
	if err := json.Unmarshal(out, &e); err != nil {
		t.Fatalf("status %d with a body that is no error envelope: %s", resp.StatusCode, out)
	}
	return answer{status: resp.StatusCode, code: e.Code, message: e.Message}
}

func streamAnswer(t *testing.T, cl *stream.Client, body []byte) answer {
	t.Helper()
	out, err := cl.EstimateBytes(context.Background(), body)
	var se *stream.Error
	switch {
	case err == nil:
		return answer{status: http.StatusOK, body: string(out)}
	case errors.As(err, &se):
		return answer{status: serve.StatusForCode(se.Code), code: se.Code, message: se.Message}
	}
	t.Fatal(err)
	return answer{}
}

// overflowWire is testPlans[0] with its row and page counts scaled so
// the largest is 1e306: a finite, valid plan whose CPU estimate
// overflows to +Inf, an answer no surface can encode.
func overflowWire(t *testing.T) string {
	t.Helper()
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
	if total := cpuEst.PredictPlan(p); !math.IsInf(total, 1) {
		t.Fatalf("scaled plan's CPU estimate is %v, want +Inf", total)
	}
	if wire, err = plan.EncodeJSON(p); err != nil {
		t.Fatal(err)
	}
	return string(wire)
}

// TestSurfaceParity pins the rule that every surface reads a
// single-estimate body as POST /estimate does: a replica's stream
// listener and the router, over HTTP and over the stream, answer each
// body with the replica's own POST /estimate answer — the same bytes,
// or the same refusal — whichever surface saw the body first. The
// bodies are the canonical one and the shapes the envelope walker
// declines, each of which the encoding/json fallback reads its own way:
// bytes after the object, a second object, a body cut short, an escaped
// or unknown key, a null plan, an empty resource set — and a plan whose
// estimate overflows, which every surface refuses as 500 internal
// rather than encode. Every surface is
// asked each body in turn, streams first and then HTTP first, on a fresh
// replica and router each time, so an answer one surface filed in a
// response cache cannot stand in for what another would have said. The
// plan's operators are in the prediction cache before any body is sent,
// so a computed answer and a replayed one are the same bytes.
func TestSurfaceParity(t *testing.T) {
	setup(t)
	wire, err := plan.EncodeJSON(testPlans[0])
	if err != nil {
		t.Fatal(err)
	}
	canonical := `{"schema":"tpch","resource":"cpu","plan":` + string(wire) + `}`
	bodies := []struct {
		name, body string
		status     int // POST /estimate's
	}{
		{"canonical", canonical, http.StatusOK},
		{"trailing bytes", canonical + ` x`, http.StatusOK},
		{"second object", canonical + canonical, http.StatusOK},
		{"truncated mid-plan", canonical[:len(canonical)/2], http.StatusBadRequest},
		{"escaped key", `{"sch\u0065ma":"tpch","resource":"cpu","plan":` + string(wire) + `}`, http.StatusOK},
		{"unknown key", `{"schema":"tpch","resource":"cpu","priority":3,"plan":` + string(wire) + `}`, http.StatusOK},
		{"null plan", `{"schema":"tpch","resource":"cpu","plan":null}`, http.StatusBadRequest},
		{"empty resource set", `{"schema":"tpch","resources":[],"plan":` + string(wire) + `}`, http.StatusBadRequest},
		{"estimate overflows", `{"schema":"tpch","resource":"cpu","plan":` + overflowWire(t) + `}`, http.StatusInternalServerError},
	}
	for _, order := range []string{"streams first", "HTTP first"} {
		t.Run(order, func(t *testing.T) {
			rep := newTestReplica(t)
			rt, rhs := newRouter(t, []*testReplica{rep}, nil)
			raddr, err := rt.StartStream("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			dial := func(addr string) *stream.Client {
				cl, err := stream.Dial(addr)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { cl.Close() })
				return cl
			}
			repStream, rtStream := dial(rep.ss.Addr()), dial(raddr)
			if _, err := rep.svc.Estimate(context.Background(),
				serve.Request{Schema: "tpch", Resource: plan.CPUTime, Plan: testPlans[0]}); err != nil {
				t.Fatal(err)
			}
			surfaces := []struct {
				name string
				ask  func([]byte) answer
			}{
				{"replica stream", func(b []byte) answer { return streamAnswer(t, repStream, b) }},
				{"router stream", func(b []byte) answer { return streamAnswer(t, rtStream, b) }},
				{"router HTTP", func(b []byte) answer { return httpAnswer(t, rhs.URL, b) }},
				{"replica HTTP", func(b []byte) answer { return httpAnswer(t, rep.hs.URL, b) }},
			}
			if order == "HTTP first" {
				slices.Reverse(surfaces)
			}
			for _, b := range bodies {
				got := make(map[string]answer, len(surfaces))
				for _, s := range surfaces {
					got[s.name] = s.ask([]byte(b.body))
				}
				want := got["replica HTTP"]
				if want.status != b.status {
					t.Errorf("%s: POST /estimate answered %v, want status %d", b.name, want, b.status)
				}
				for _, s := range surfaces {
					if a := got[s.name]; a != want {
						t.Errorf("%s: %s answered %v; POST /estimate answered %v", b.name, s.name, a, want)
					}
				}
			}
		})
	}
}
