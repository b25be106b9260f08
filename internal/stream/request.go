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
// this side owns and never reuses), and a body the walker declines —
// unknown or folded keys, escaped strings, nulls, unexpected types,
// over-deep nesting — is rerun through encoding/json wholesale, so every
// slow or ambiguous case keeps stdlib semantics, including its error
// text. The one rule: whenever the walker says it decoded, the result
// must be field for field what stdlib would have produced. A
// differential fuzz target (FuzzRequestDecode) pins exactly that here,
// FuzzEnvelopeDecode in internal/serve for the other endpoints' keys.
// plan.DecodeJSON decodes the aliased plan bytes under the same
// contract.

// DecodeRequest decodes one request envelope into req.
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
	if !serve.DecodeEnvelope(body, serve.EstimateKeys, &env) {
		return false
	}
	*req = Request{Schema: env.Schema, Resource: env.Resource, Resources: env.Resources,
		TimeoutMS: env.TimeoutMS, Plan: env.Plan}
	return true
}
