package stream

import (
	"encoding/json"

	"repro/internal/jsonscan"
)

// The streaming transport's request envelope is a flat JSON object
// with a handful of known keys, decoded once per frame on the hot
// path. encoding/json charges two full passes over the body for that
// (validity scan + decode) and copies the embedded plan into a fresh
// RawMessage. decodeRequest walks the envelope once over the shared
// scanning primitives of internal/jsonscan, aliasing the plan's bytes
// out of the frame body (which this side owns and never reuses), and
// bails out to encoding/json on anything that strays from the expected
// shape — unknown or folded keys, escaped strings, nulls, unexpected
// types, over-deep nesting — so every slow or ambiguous case keeps
// stdlib semantics, including its error text. The one rule: whenever
// the fast path says it decoded, the result must be byte-for-byte what
// stdlib would have produced. A differential fuzz target
// (FuzzRequestDecode) pins exactly that. plan.DecodeJSON decodes the
// aliased plan bytes under the same contract.

// DecodeRequest decodes one request envelope into req — the routing
// tier peeks the schema for affinity placement with the same fast
// path the server uses, so routing adds one envelope walk, not a
// second full JSON parse.
func DecodeRequest(body []byte, req *Request) error { return decodeRequest(body, req) }

// decodeRequest decodes one request envelope into req.
func decodeRequest(body []byte, req *Request) error {
	if fastDecodeRequest(body, req) {
		return nil
	}
	*req = Request{}
	return json.Unmarshal(body, req)
}

// fastDecodeRequest reports whether it fully decoded body on the fast
// path. false means "retry with encoding/json", not "invalid".
func fastDecodeRequest(b []byte, req *Request) bool {
	i := jsonscan.SkipWS(b, 0)
	if i >= len(b) || b[i] != '{' {
		return false
	}
	i = jsonscan.SkipWS(b, i+1)
	if i < len(b) && b[i] == '}' {
		return jsonscan.SkipWS(b, i+1) == len(b)
	}
	for {
		key, at, ok := jsonscan.Key(b, i)
		if !ok {
			return false
		}
		i = at
		// Only exactly-known keys stay on the fast path: stdlib
		// matches field names case-insensitively and skips unknown
		// fields after validating their values, and reproducing either
		// is not worth it.
		switch string(key) { // compiler avoids the []byte->string alloc here
		case "schema", "resource":
			s, end, ok := jsonscan.PlainString(b, i)
			if !ok {
				return false
			}
			if key[0] == 's' {
				req.Schema = string(s)
			} else {
				req.Resource = string(s)
			}
			i = end
		case "resources":
			end, ok := jsonscan.ValidValueEnd(b, i, 0)
			if !ok {
				return false
			}
			arr, ok := fastStringArray(b[i:end])
			if !ok {
				return false
			}
			req.Resources = arr
			i = end
		case "plan":
			end, ok := jsonscan.ValidValueEnd(b, i, 0)
			if !ok {
				return false
			}
			req.Plan = json.RawMessage(b[i:end])
			i = end
		case "timeout_ms":
			end, ok := jsonscan.ValidValueEnd(b, i, 0)
			if !ok {
				return false
			}
			n, ok := jsonscan.Int(b[i:end])
			if !ok {
				return false
			}
			req.TimeoutMS = n
			i = end
		default:
			return false
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

// fastStringArray decodes a flat array of escape-free strings from an
// already-validated extent.
func fastStringArray(val []byte) ([]string, bool) {
	i := jsonscan.SkipWS(val, 0)
	if i >= len(val) || val[i] != '[' {
		return nil, false
	}
	i = jsonscan.SkipWS(val, i+1)
	if i < len(val) && val[i] == ']' {
		// stdlib decodes [] into an empty non-nil slice.
		return []string{}, jsonscan.SkipWS(val, i+1) == len(val)
	}
	var out []string
	for {
		s, end, ok := jsonscan.PlainString(val, i)
		if !ok {
			return nil, false
		}
		out = append(out, string(s))
		var last bool
		if i, last, ok = jsonscan.Next(val, end, ']'); !ok {
			return nil, false
		}
		if last {
			return out, jsonscan.SkipWS(val, i) == len(val)
		}
	}
}
