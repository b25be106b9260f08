package stream

import (
	"encoding/json"

	"repro/internal/serve"
)

// A FrameEstimate body is the POST /estimate envelope, decoded once per
// frame on the hot path — by this transport's server and by the routing
// tier, which peeks the schema for affinity placement. Both go through
// the one envelope walker every endpoint shares (serve.DecodeEnvelope:
// a single pass aliasing the plan's bytes out of the frame body, which
// nothing reads once the plan is built — so the body may lie in a read
// buffer that is reused), and a body the walker declines — unknown or
// folded keys, escaped strings, nulls, unexpected types, over-deep
// nesting — is rerun through encoding/json wholesale, so every
// slow or ambiguous case keeps stdlib semantics, including its error
// text. The one rule: whenever the walker says it decoded, the result
// must be field for field what stdlib would have produced. A
// differential fuzz target (FuzzRequestDecode) pins exactly that here,
// FuzzEnvelopeDecode in internal/serve for the other endpoints' keys.
// The plan decodes under the same contract: in the walker's own pass
// for the server, not at all for the routing tier.

// DecodeRequest decodes one request envelope into req, its plan left as
// validated wire bytes: what the routing tier needs, which forwards the
// body. The server decodes with decodeEstimate.
func DecodeRequest(body []byte, req *Request) error {
	if fastDecodeRequest(body, req) {
		return nil
	}
	*req = Request{}
	return json.Unmarshal(body, req)
}

// fastDecodeRequest reports whether the envelope walker fully decoded
// body. false means "retry with encoding/json", not "invalid".
func fastDecodeRequest(body []byte, req *Request) bool {
	var env serve.Envelope
	if !serve.DecodeEnvelope(body, serve.ForwardKeys, &env) {
		return false
	}
	*req = Request{Schema: env.Schema, Resource: env.Resource, Resources: env.Resources,
		TimeoutMS: env.TimeoutMS, Plan: env.Plan}
	return true
}

// decodeEstimate is DecodeRequest for the side that estimates: the
// walker builds the plan in the pass that finds it, and a body it
// declines decodes as DecodeRequest's does.
func decodeEstimate(body []byte, env *serve.Envelope) error {
	if serve.DecodeEnvelope(body, serve.EstimateKeys, env) {
		return nil
	}
	var req Request
	err := json.Unmarshal(body, &req)
	*env = serve.Envelope{Schema: req.Schema, Resource: req.Resource, Resources: req.Resources,
		TimeoutMS: req.TimeoutMS, Plan: req.Plan}
	return err
}
