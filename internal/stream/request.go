package stream

import "repro/internal/serve"

// A FrameEstimate body is the POST /estimate body, and this transport
// owns no format for it: the request type is serve's, and every body is
// decoded by serve.DecodeRequest — the one decoder POST /estimate uses —
// by this transport's server and by the routing tier, which peeks the
// schema for affinity placement. A canonical body takes the envelope
// walker (a single pass aliasing the plan's bytes out of the frame body,
// which nothing reads once the plan is built, so the body may lie in a
// read buffer that is reused); any other goes to the same encoding/json
// Decoder POST /estimate falls back to. So a body is accepted, refused
// and worded the same on every surface — trailing bytes after the object
// included — and FuzzEnvelopeDecode in internal/serve pins the walker
// against that fallback for both key sets used here.

// Request is the wire body of a FrameEstimate: serve's POST /estimate
// request.
type Request = serve.EstimateRequest

// DecodeRequest decodes one request body into req as POST /estimate
// does, its plan left as validated wire bytes (serve.ForwardKeys): what
// the routing tier needs, which forwards the body. The server decodes
// with serve.EstimateKeys, building the plan in the same pass.
func DecodeRequest(body []byte, req *Request) error {
	env, err := serve.DecodeRequest(body, serve.ForwardKeys)
	*req = Request{Schema: env.Schema, Resource: env.Resource, Resources: env.Resources,
		TimeoutMS: env.TimeoutMS, Plan: env.Plan}
	return err
}
