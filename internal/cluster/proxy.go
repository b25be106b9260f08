package cluster

import (
	"bytes"
	"context"
	"io"
	"net/http"

	"repro/internal/serve"
)

// jsonHeader is the header of a request the router writes itself.
var jsonHeader = http.Header{"Content-Type": {"application/json"}}

// send makes one HTTP request to rp: every request the router sends a
// replica is built here. It carries the headers that matter
// tier-internally — from hdr the content type, the Accept negotiation
// and the X-Client-Id; from ctx the request ID that joins router and
// replica logs. A nil body sends none. An error is transport-only: the
// replica never answered.
func send(ctx context.Context, rp *replica, method, pathQuery string, hdr http.Header, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, rp.base+pathQuery, rd)
	if err != nil {
		return nil, err
	}
	for _, k := range [...]string{"Content-Type", "Accept", clientIDHeader} {
		if v := hdr.Get(k); v != "" {
			req.Header.Set(k, v)
		}
	}
	if id := serve.RequestIDFrom(ctx); id != "" {
		req.Header.Set(serve.RequestIDHeader, id)
	}
	return rp.httpc.Do(req)
}

// readReply takes send's results and reads the replica's status and
// whole body, bounded by serve.MaxEstimateBody: readReply(send(...)).
// Any error is transport-only.
func readReply(resp *http.Response, err error) (int, []byte, error) {
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, serve.MaxEstimateBody))
	return resp.StatusCode, body, err
}

// proxyVerbatim replays the client's request against rp and streams the
// replica's response — status, content type, Retry-After, body —
// unchanged, which is what keeps proxied endpoints byte-identical to
// single-node. The returned error is transport-only (suitable for a
// retry on another replica); once the replica has answered, whatever it
// said is final.
func proxyVerbatim(w http.ResponseWriter, r *http.Request, rp *replica, body []byte) error {
	resp, err := send(r.Context(), rp, r.Method, r.URL.RequestURI(), r.Header, body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	for _, k := range [...]string{"Content-Type", "Retry-After"} {
		if v := resp.Header.Get(k); v != "" {
			w.Header().Set(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
	return nil
}
