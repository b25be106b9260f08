package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
)

// forwardHTTP posts body to rp's path — the estimate fallback when a
// replica advertises no stream listener. A nil error pair means the
// returned bytes are the replica's 200 body, verbatim; a *routeError
// carries a structured replica error; the plain error is a transport
// failure (the replica never answered).
func (rt *Router) forwardHTTP(ctx context.Context, rp *replica, path, rawQuery string, body []byte) ([]byte, *routeError, error) {
	url := rp.base + path
	if rawQuery != "" {
		url += "?" + rawQuery
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := rp.httpc.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(io.LimitReader(resp.Body, maxRouterBody))
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode == http.StatusOK {
		return respBody, nil, nil
	}
	var env errorEnvelope
	if json.Unmarshal(respBody, &env) != nil || env.Code == "" {
		env = errorEnvelope{Error: "replica error: " + resp.Status, Code: "internal"}
	}
	return nil, &routeError{status: resp.StatusCode, code: env.Code, msg: env.Error}, nil
}

// proxyVerbatim replays the client's request against rp and copies the
// replica's response — status, content type, body — unchanged, which
// is what keeps proxied endpoints byte-identical to single-node. The
// returned error is transport-only (suitable for a retry on another
// replica); once the replica has answered, whatever it said is final.
func (rt *Router) proxyVerbatim(w http.ResponseWriter, r *http.Request, rp *replica, body []byte) error {
	url := rp.base + r.URL.Path
	if r.URL.RawQuery != "" {
		url += "?" + r.URL.RawQuery
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, url, rd)
	if err != nil {
		return err
	}
	copyProxyHeaders(req.Header, r.Header)
	resp, err := rp.httpc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
	return nil
}

// forwardRaw replays the client's request against rp and returns the
// replica's answer instead of writing it — the fan-out path inspects
// statuses across the fleet before answering the client.
func (rt *Router) forwardRaw(r *http.Request, rp *replica, body []byte) (int, []byte, error) {
	url := rp.base + r.URL.Path
	if r.URL.RawQuery != "" {
		url += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	copyProxyHeaders(req.Header, r.Header)
	resp, err := rp.httpc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(io.LimitReader(resp.Body, maxRouterBody))
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, respBody, nil
}

// copyProxyHeaders forwards the headers that matter tier-internally:
// content negotiation and the request ID that joins router and
// replica logs.
func copyProxyHeaders(dst, src http.Header) {
	for _, k := range [...]string{"Content-Type", "Accept", "X-Request-ID", "X-Client-ID"} {
		if v := src.Get(k); v != "" {
			dst.Set(k, v)
		}
	}
}
