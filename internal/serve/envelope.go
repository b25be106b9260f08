package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/jsonscan"
	"repro/internal/plan"
)

// Every request that carries a plan — POST /estimate, /estimate/batch
// and /observe, the stream transport's estimate frame, the router's
// schema peek — arrives in one envelope: a flat JSON object of a few
// known keys around the plan. encoding/json charges two full passes
// over the body for it (validity scan + decode) and copies the embedded
// plan into a fresh RawMessage. DecodeEnvelope walks the envelope once
// over the shared primitives of internal/jsonscan, aliasing a single
// plan's bytes out of the body. Where the caller estimates, the plan
// decoder (plan.Decoder) builds the plan — each element of a plans
// array — in that same pass; a value it declines is validated and left
// to plan.DecodeJSON. The walker itself declines — returns false, never
// an error — on anything off the canonical shape: a key the endpoint
// does not take, a case-folded or repeated key, an escape or invalid
// UTF-8 in a string, null in place of a scalar, a fraction, exponent or
// more than 18 digits in an integer, an out-of-range number, nesting
// past jsonscan.MaxDepth, trailing bytes, and — in a batch — an empty
// plans array, a plan that does not decode or one plan over the cap.
// The caller then reruns the body through its encoding/json struct
// wholesale, so every slow or ambiguous case keeps stdlib semantics and
// error text. The one rule: whenever the walker says it decoded, the
// fields are what stdlib would have produced. FuzzEnvelopeDecode pins
// exactly that for each endpoint's key set.

// ResourceSet is the wire form of a request's resources field: an
// array of resource names, or a single string — a resource name or
// "all" — which decodes as the one-element set. nil means the field
// was absent (or null) and the single resource field applies; a
// non-nil empty set is an explicit "[]", which must error like any
// other invalid set rather than silently fall back.
type ResourceSet []string

func (r *ResourceSet) UnmarshalJSON(data []byte) error {
	*r = nil
	if string(data) == "null" {
		return nil
	}
	var s string
	if err := json.Unmarshal(data, &s); err == nil {
		*r = ResourceSet{s}
		return nil
	}
	var names []string
	if err := json.Unmarshal(data, &names); err != nil {
		return fmt.Errorf(`resources must be "all", a resource name, or an array of resource names`)
	}
	*r = names
	return nil
}

// Kinds resolves the wire selection against the single-resource
// fallback field. Unknown names yield ErrUnknownResource (the
// structured unknown_resource envelope on the wire, never a bare 400).
func (r ResourceSet) Kinds(single string) ([]plan.ResourceKind, error) {
	if r == nil {
		k, err := ParseResource(single)
		if err != nil {
			return nil, err
		}
		return []plan.ResourceKind{k}, nil
	}
	return ParseResourceSet(r)
}

// EnvelopeKeys is a set of envelope keys: which ones an endpoint takes.
type EnvelopeKeys uint16

const (
	keySchema EnvelopeKeys = 1 << iota
	keyResource
	keyResources
	keyTimeoutMS
	keyModelVersion
	keyPredicted
	keyPlan // "plan", decoded where it lies when the plan decoder takes it
	keyPlans
	keyRawPlan // "plan", validated only: its bytes are all the caller wants

	// EstimateKeys is the single-estimate envelope: POST /estimate and
	// the stream transport's estimate frame.
	EstimateKeys = keySchema | keyResource | keyResources | keyTimeoutMS | keyPlan
	// ForwardKeys is the same envelope to a caller that passes the plan
	// on undecoded: PeekSchema's fallback.
	ForwardKeys = EstimateKeys&^keyPlan | keyRawPlan
	batchKeys   = keySchema | keyResource | keyResources | keyTimeoutMS | keyPlans
	observeKeys = keySchema | keyResource | keyModelVersion | keyPredicted | keyPlan
)

// Envelope is a decoded request envelope: the union of the fields the
// endpoints take.
type Envelope struct {
	Schema       string
	Resource     string
	Resources    ResourceSet
	TimeoutMS    int
	ModelVersion uint64
	Predicted    float64
	// Plan is the single plan's wire bytes, validated as JSON and
	// aliasing the body; nil when the key was absent.
	Plan json.RawMessage
	// Built is Plan decoded, when the key set asked for that and the
	// plan decoder took the bytes in the walker's own pass; nil leaves
	// Plan to plan.DecodeJSON.
	Built *plan.Plan
	// Plans are a batch's decoded plans.
	Plans []*plan.Plan
	// badPlan and badPlanErr are the first batch plan the encoding/json
	// path could not decode, reported — with its index — only after the
	// rest of the envelope has been checked. The walker declines such a
	// body, so it never sets them.
	badPlan    int
	badPlanErr error
}

// DecodeRequest decodes an endpoint's request body: the envelope
// walker, or — for a body it declines — the endpoint's encoding/json
// struct. It is the one decoder of a single-estimate body on every
// surface: POST /estimate and the stream's estimate frame with
// EstimateKeys; ForwardKeys reads the envelope without building the
// plan.
func DecodeRequest(body []byte, keys EnvelopeKeys) (Envelope, error) {
	var env Envelope
	if DecodeEnvelope(body, keys, &env) {
		return env, nil
	}
	return decodeRequestStd(body, keys)
}

// decodeRequestStd is the encoding/json decode of a request body: the
// fallback for envelopes the walker declines, and the reference it is
// tested against. A Decoder, as the handlers always used: it stops at
// the end of the first value.
func decodeRequestStd(body []byte, keys EnvelopeKeys) (Envelope, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	switch keys {
	case batchKeys:
		var req batchEstimateRequestJSON
		err := dec.Decode(&req)
		return Envelope{Schema: req.Schema, Resource: req.Resource, Resources: req.Resources,
			TimeoutMS: req.TimeoutMS, Plans: req.Plans.plans,
			badPlan: req.Plans.badIndex, badPlanErr: req.Plans.badErr}, err
	case observeKeys:
		var req observeRequestJSON
		err := dec.Decode(&req)
		return Envelope{Schema: req.Schema, Resource: req.Resource, ModelVersion: req.ModelVersion,
			Predicted: req.Predicted, Plan: req.Plan}, err
	default:
		var req EstimateRequest
		err := dec.Decode(&req)
		return Envelope{Schema: req.Schema, Resource: req.Resource, Resources: req.Resources,
			TimeoutMS: req.TimeoutMS, Plan: req.Plan}, err
	}
}

// PeekSchema reads the routing key of a single-estimate body the router
// forwards, which the replica decodes again: with scanSchema, and with
// DecodeRequest's encoding/json fallback (building nothing) only for a
// body the scan declines. A body that does not parse routes by the
// empty schema, or by the schema the scan found, and the replica it
// reaches produces the canonical error.
func PeekSchema(body []byte) string {
	if schema, ok := scanSchema(body); ok {
		return schema
	}
	env, err := decodeRequestStd(body, ForwardKeys)
	if err != nil {
		return ""
	}
	return env.Schema
}

// scanSchema reads the top-level "schema" of a JSON object body,
// stepping over every other value unvalidated, and reports whether it
// could. Like the walker, it declines a body that is not an object, an
// escape in a key or in the schema, a repeated "schema", a key
// encoding/json would match to it case-insensitively, a schema that is
// not a plain string, and malformed bytes it notices. When
// DecodeRequest accepts a body, the scan returns that decode's Schema
// or declines (FuzzSchemaScan). It may return a schema for a body the
// decode refuses; such a body is an error on every replica.
func scanSchema(b []byte) (schema string, ok bool) {
	i := jsonscan.SkipWS(b, 0)
	if i >= len(b) || b[i] != '{' {
		return "", false
	}
	i = jsonscan.SkipWS(b, i+1)
	found := false
	for {
		name, at, ok := jsonscan.Key(b, i)
		if !ok {
			return "", false
		}
		switch {
		case string(name) == "schema":
			s, end, ok := jsonscan.PlainString(b, at)
			if !ok || found {
				return "", false
			}
			schema, found, i = string(s), true, end
		case bytes.EqualFold(name, []byte("schema")):
			return "", false
		default:
			if i, ok = jsonscan.SkipValue(b, at); !ok {
				return "", false
			}
		}
		var last bool
		if i, last, ok = jsonscan.Next(b, i, '}'); !ok {
			return "", false
		}
		if last {
			return schema, true
		}
	}
}

// DecodeEnvelope reports whether it fully decoded body, whose keys must
// all be in allow, into the zero Envelope env. false means "retry with
// encoding/json", not "invalid"; env may then be partly filled.
func DecodeEnvelope(b []byte, allow EnvelopeKeys, env *Envelope) bool {
	i := jsonscan.SkipWS(b, 0)
	if i >= len(b) || b[i] != '{' {
		return false
	}
	i = jsonscan.SkipWS(b, i+1)
	if i < len(b) && b[i] == '}' {
		return jsonscan.SkipWS(b, i+1) == len(b)
	}
	var seen EnvelopeKeys
	for {
		name, at, ok := jsonscan.Key(b, i)
		if !ok {
			return false
		}
		i = at
		// Only exactly-known keys stay on the fast path: stdlib matches
		// field names case-insensitively, skips unknown fields after
		// validating their values and lets a repeated key overwrite or
		// merge, and reproducing any of it is not worth it.
		var key EnvelopeKeys
		switch string(name) { // compiler avoids the []byte->string alloc here
		case "schema":
			key = keySchema
		case "resource":
			key = keyResource
		case "resources":
			key = keyResources
		case "timeout_ms":
			key = keyTimeoutMS
		case "model_version":
			key = keyModelVersion
		case "predicted":
			key = keyPredicted
		case "plan":
			key = allow & (keyPlan | keyRawPlan)
		case "plans":
			key = keyPlans
		}
		if key&allow == 0 || key&seen != 0 {
			return false
		}
		seen |= key

		switch key {
		case keySchema, keyResource:
			s, end, ok := jsonscan.PlainString(b, i)
			if !ok {
				return false
			}
			if key == keySchema {
				env.Schema = string(s)
			} else {
				env.Resource = string(s)
			}
			i = end
		case keyResources:
			if env.Resources, i, ok = resourceSet(b, i); !ok {
				return false
			}
		case keyTimeoutMS, keyModelVersion:
			end, ok := jsonscan.NumberEnd(b, i)
			if !ok {
				return false
			}
			n, ok := jsonscan.Int(b[i:end])
			if !ok || (key == keyModelVersion && b[i] == '-') { // "-0" included: not a uint to stdlib
				return false
			}
			if key == keyTimeoutMS {
				env.TimeoutMS = n
			} else {
				env.ModelVersion = uint64(n)
			}
			i = end
		case keyPredicted:
			// Out of range is stdlib's error to report.
			if env.Predicted, i, ok = jsonscan.Float(b, i); !ok {
				return false
			}
		case keyPlan, keyRawPlan:
			end, built := 0, false
			if key == keyPlan {
				var d plan.Decoder
				env.Built, end, built = d.DecodeAt(b, i)
			}
			if !built {
				if end, ok = jsonscan.ValidValueEnd(b, i, 0); !ok {
					return false
				}
			}
			env.Plan, i = json.RawMessage(b[i:end]), end
		case keyPlans:
			// A plan error's index and text, the plan-count cap and an
			// empty array are the stdlib path's to report.
			var bp batchPlans
			end, err := bp.decode(b, i)
			if err != nil || bp.badErr != nil || len(bp.plans) == 0 {
				return false
			}
			env.Plans, i = bp.plans, end
		}
		var last bool
		if i, last, ok = jsonscan.Next(b, i, '}'); !ok {
			return false
		}
		if last {
			return jsonscan.SkipWS(b, i) == len(b)
		}
	}
}

// resourceSet decodes the resources value at i — an escape-free string
// or a flat array of them — and returns the index one past it.
func resourceSet(b []byte, i int) (ResourceSet, int, bool) {
	if i < len(b) && b[i] == '"' {
		s, end, ok := jsonscan.PlainString(b, i)
		return ResourceSet{string(s)}, end, ok
	}
	if i >= len(b) || b[i] != '[' {
		return nil, 0, false
	}
	i = jsonscan.SkipWS(b, i+1)
	if i < len(b) && b[i] == ']' {
		// stdlib decodes [] into an empty non-nil slice.
		return ResourceSet{}, i + 1, true
	}
	var out ResourceSet
	for {
		s, end, ok := jsonscan.PlainString(b, i)
		if !ok {
			return nil, 0, false
		}
		out = append(out, string(s))
		var last bool
		if i, last, ok = jsonscan.Next(b, end, ']'); !ok {
			return nil, 0, false
		}
		if last {
			return out, i, true
		}
	}
}

// The encoding/json targets of the three endpoints, which
// decodeRequestStd decodes into.

// EstimateRequest is the wire body of a single estimate: POST /estimate
// and the stream transport's estimate frame (stream.Request). Clients
// marshal it; DecodeRequest is what reads it.
type EstimateRequest struct {
	// Schema routes to a published model; empty uses the wildcard.
	Schema string `json:"schema,omitempty"`
	// Resource is "cpu" (default) or "io". Ignored when Resources is
	// present.
	Resource string `json:"resource,omitempty"`
	// Resources selects several resources in one request: an array of
	// resource names (["cpu","io"]) or the string "all". The plan's
	// features are extracted once and fanned out across every named
	// resource's model.
	Resources ResourceSet `json:"resources,omitempty"`
	// TimeoutMS overrides the service's default deadline when > 0.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// Plan is the wire-encoded physical plan (plan.EncodeJSON).
	Plan json.RawMessage `json:"plan"`
}

// batchEstimateRequestJSON is the wire form of POST /estimate/batch:
// the single-plan request with plans (an array of wire-encoded plans)
// in place of plan.
type batchEstimateRequestJSON struct {
	Schema    string      `json:"schema,omitempty"`
	Resource  string      `json:"resource,omitempty"`
	Resources ResourceSet `json:"resources,omitempty"`
	TimeoutMS int         `json:"timeout_ms,omitempty"`
	Plans     batchPlans  `json:"plans"`
}

// observeRequestJSON reports an executed plan back to the service: the
// wire plan carries per-operator actual_cpu/actual_io measurements, and
// predicted echoes the total the service served earlier (optional —
// when omitted the loop recomputes it against the current model).
type observeRequestJSON struct {
	Schema       string          `json:"schema,omitempty"`
	Resource     string          `json:"resource,omitempty"`
	ModelVersion uint64          `json:"model_version,omitempty"`
	Predicted    float64         `json:"predicted,omitempty"`
	Plan         json.RawMessage `json:"plan"`
}

var (
	// errTooManyPlans aborts a batch decode at the plan cap.
	errTooManyPlans = fmt.Errorf("serve: batch exceeds the %d-plan limit", maxBatchPlans)
	// errSplitPlans cannot happen on the scanned bytes encoding/json
	// hands an Unmarshaler; to the walker it is one more decline.
	errSplitPlans = errors.New("plans: malformed array")
)

// batchPlans is a decoded plans array. Its decode splits the array and
// hands each element to plan.DecodeJSON, with the count cap enforced
// *during* decoding — a flat []json.RawMessage would materialize every
// element of a MaxBatchBody-sized request (millions of tiny entries)
// before the handler could count them; this stops at maxBatchPlans+1
// with the rest of the array unparsed.
type batchPlans struct {
	plans []*plan.Plan
	// The first plan that failed to decode, reported — with its index —
	// only after the rest of the envelope has been checked.
	badIndex int
	badErr   error
}

func (bp *batchPlans) UnmarshalJSON(data []byte) error {
	*bp = batchPlans{}
	if string(data) == "null" {
		return nil
	}
	_, err := bp.decode(data, 0)
	return err
}

// decode decodes the plans array at b[i] and returns the index one past
// it. The plan decoder takes each canonical element where it lies, one
// node arena under the whole batch; for an element it declines, one
// unvalidating scan finds the extent — all the bytes encoding/json
// hands an Unmarshaler need, and enough for the walker's, because
// plan.DecodeJSON validates what it decodes: an extent it accepts is
// one complete JSON object, hence the whole element, and the walker
// declines the body over any it does not.
func (bp *batchPlans) decode(b []byte, i int) (int, error) {
	if i >= len(b) || b[i] != '[' {
		return 0, fmt.Errorf("plans must be an array")
	}
	i = jsonscan.SkipWS(b, i+1)
	if i < len(b) && b[i] == ']' {
		return i + 1, nil
	}
	var d plan.Decoder
	for {
		if len(bp.plans) >= maxBatchPlans {
			return 0, errTooManyPlans
		}
		p, end, ok := d.DecodeAt(b, i)
		if !ok {
			if end, ok = jsonscan.SkipValue(b, i); !ok {
				return 0, errSplitPlans
			}
			var err error
			if p, err = plan.DecodeJSON(b[i:end]); err != nil {
				// A value of the wrong JSON type fails the whole body, as
				// it does anywhere else in the envelope (returned bare,
				// encoding/json names the envelope field in it); a plan
				// that parses but does not hold up is a per-plan error.
				var typeErr *json.UnmarshalTypeError
				if errors.As(err, &typeErr) {
					return 0, typeErr
				}
				if bp.badErr == nil {
					bp.badIndex, bp.badErr = len(bp.plans), err
				}
			}
		}
		if bp.plans == nil {
			// Elements are about the same size, so the first sizes the
			// slice; the cap keeps a crafted body from sizing it.
			bp.plans = make([]*plan.Plan, 0, min(len(b)/(end-i)+1, maxBatchPlans))
		}
		bp.plans = append(bp.plans, p)
		var last bool
		if i, last, ok = jsonscan.Next(b, end, ']'); !ok {
			return 0, errSplitPlans
		}
		if last {
			return i, nil
		}
	}
}
