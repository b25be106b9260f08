package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/jsonscan"
)

// Every estimate ends in one Response or BatchResponse on the wire, and
// the reflective encoder pays for each with a walk of the type's field
// table per operator. appendResponse and appendBatchResponse write the
// same bytes directly, under the envelope walker's contract in the
// other direction (envelope.go): the struct's field order, omitempty
// lists dropped when empty, nil slices as null, jsonscan.AppendFloat's
// number format — and they decline, returning false, on anything
// encoding/json would treat specially: a NaN or infinite number
// (stdlib's error to report), a string that needs escaping, an attached
// Explain. MarshalWire and writeJSON then run the stdlib encoder
// wholesale. The one rule: whenever the append encoder says it encoded,
// the bytes are the stdlib encoder's. The response differential test
// pins exactly that.

// MarshalWire encodes v exactly as the HTTP endpoints do: no HTML
// escaping, a trailing newline. Stream response payloads go through
// this so they are byte-identical to the corresponding /estimate
// response body — pinned by test.
func MarshalWire(v any) ([]byte, error) {
	buf := wirePool.Get().(*[]byte)
	defer wirePool.Put(buf)
	b, ok := appendWire((*buf)[:0], v)
	if !ok {
		return marshalStd(v)
	}
	if cap(b) <= maxPooledWire {
		*buf = b
	}
	return bytes.Clone(b), nil
}

// marshalStd is the encoding/json encode: the fallback for values the
// append encoders decline, and the reference they are tested against.
func marshalStd(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// appendWire appends v's wire encoding when v is a response the append
// encoders take.
func appendWire(dst []byte, v any) ([]byte, bool) {
	switch v := v.(type) {
	case *Response:
		if v != nil {
			return appendResponse(dst, v)
		}
	case *BatchResponse:
		if v != nil {
			return appendBatchResponse(dst, v)
		}
	}
	return dst, false
}

// wirePool recycles the buffers responses are encoded into — written
// to the client from, or copied out of at their final size. A buffer a
// large batch response grew is not kept.
var wirePool = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledWire = 1 << 20

func writeJSON(w http.ResponseWriter, status int, v any) {
	buf := wirePool.Get().(*[]byte)
	defer wirePool.Put(buf)
	b, ok := appendWire((*buf)[:0], v)
	if !ok {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		enc := json.NewEncoder(w)
		enc.SetEscapeHTML(false)
		_ = enc.Encode(v)
		return
	}
	if cap(b) <= maxPooledWire {
		*buf = b
	}
	writeWire(w, status, b)
}

// writeWire sends a body that is already its JSON wire encoding.
func writeWire(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body) // the client went away; nothing to report it to
}

// wireEncoder is the state of one append encode: the output, whether
// every value so far was one the encoder takes, and a memo of the
// finite floats written so far.
type wireEncoder struct {
	b    []byte
	ok   bool
	memo [1 << wireMemoBits]wireMemo
}

// wireMemoBits sizes the memo: 64 slots, against the 34 floats of a
// two-resource plan's response.
const wireMemoBits = 6

// wireMemo is one float already written: its bits and where its bytes
// sit in b. end == 0 is an empty slot — a float always follows its key.
type wireMemo struct {
	bits    uint64
	at, end int
}

func (e *wireEncoder) raw(s string) { e.b = append(e.b, s...) }

func (e *wireEncoder) int(key string, v int) {
	e.b = strconv.AppendInt(append(e.b, key...), int64(v), 10)
}

// float appends `key` and f in jsonscan.AppendFloat's format. A
// response repeats values: a two-resource response writes each primary
// value twice in a row (total and totals[0], estimate and
// estimates[0]), and a one-operator pipeline's estimate is its
// operator's. So every finite float written is filed in a direct-mapped
// memo by a multiplicative hash of its bits, and a value whose bits
// match its slot's copies those bytes instead of formatting them again;
// a collision only costs the later value a format. Bits, not ==: -0 and
// +0 are told apart.
func (e *wireEncoder) float(key string, f float64) {
	e.b = append(e.b, key...)
	bits := math.Float64bits(f)
	m := &e.memo[bits*0x9E3779B97F4A7C15>>(64-wireMemoBits)]
	if m.end > 0 && m.bits == bits {
		e.b = append(e.b, e.b[m.at:m.end]...)
		return
	}
	at := len(e.b)
	var finite bool
	e.b, finite = jsonscan.AppendFloat(e.b, f)
	if !finite {
		e.ok = false
		return
	}
	*m = wireMemo{bits: bits, at: at, end: len(e.b)}
}

func (e *wireEncoder) string(key, s string) {
	var plain bool
	e.b, plain = jsonscan.AppendString(append(e.b, key...), s)
	e.ok = e.ok && plain
}

// floats appends `key` and the list unless it is omitempty's empty.
func (e *wireEncoder) floats(key string, fs []float64) {
	if len(fs) == 0 {
		return
	}
	e.raw(key)
	for i, f := range fs {
		sep := ","
		if i == 0 {
			sep = "["
		}
		e.float(sep, f)
	}
	e.raw("]")
}

// header appends the fields a Response and a BatchResponse open with.
func (e *wireEncoder) header(model *ModelInfo, models []ModelInfo, resources []string) {
	e.raw(`{"model":`)
	e.modelInfo(model)
	if len(models) > 0 {
		for i := range models {
			if i == 0 {
				e.raw(`,"models":[`)
			} else {
				e.raw(",")
			}
			e.modelInfo(&models[i])
		}
		e.raw("]")
	}
	if len(resources) > 0 {
		for i, r := range resources {
			sep := ","
			if i == 0 {
				sep = `,"resources":[`
			}
			e.string(sep, r)
		}
		e.raw("]")
	}
}

// estimates appends the operators and pipelines lists a Response and a
// PlanEstimate close with.
func (e *wireEncoder) estimates(ops []OperatorEstimate, pipes []PipelineEstimate) {
	e.raw(`,"operators":`)
	if ops == nil {
		e.raw("null")
	} else {
		e.raw("[")
		for i := range ops {
			op := &ops[i]
			if i > 0 {
				e.raw(",")
			}
			e.int(`{"id":`, op.ID)
			e.string(`,"kind":`, op.Kind)
			e.float(`,"estimate":`, op.Estimate)
			e.floats(`,"estimates":`, op.Estimates)
			e.raw("}")
		}
		e.raw("]")
	}
	e.raw(`,"pipelines":`)
	if pipes == nil {
		e.raw("null")
		return
	}
	e.raw("[")
	for i := range pipes {
		pl := &pipes[i]
		if i > 0 {
			e.raw(",")
		}
		e.int(`{"id":`, pl.ID)
		e.float(`,"estimate":`, pl.Estimate)
		e.floats(`,"estimates":`, pl.Estimates)
		e.raw(`,"operators":`)
		if pl.Operators == nil {
			e.raw("null")
		} else {
			e.raw("[")
			for k, id := range pl.Operators {
				if k > 0 {
					e.raw(",")
				}
				e.b = strconv.AppendInt(e.b, int64(id), 10)
			}
			e.raw("]")
		}
		e.raw("}")
	}
	e.raw("]")
}

func appendResponse(dst []byte, r *Response) ([]byte, bool) {
	if r.Explain != nil {
		return dst, false
	}
	e := wireEncoder{b: dst, ok: true}
	e.header(&r.Model, r.Models, r.Resources)
	e.float(`,"total":`, r.Total)
	e.floats(`,"totals":`, r.Totals)
	e.estimates(r.Operators, r.Pipelines)
	e.b = appendCounters(e.b, r.CacheHits, r.CacheMisses)
	return e.b, e.ok
}

// appendCounters closes a response: the two cache counters, the brace
// and the newline — the bytes ReplayWire rewrites.
func appendCounters(b []byte, hits, misses int) []byte {
	b = strconv.AppendInt(append(b, `,"cache_hits":`...), int64(hits), 10)
	b = strconv.AppendInt(append(b, `,"cache_misses":`...), int64(misses), 10)
	return append(b, "}\n"...)
}

// ReplayWire returns what a repeat of r's request reads: body, r's wire
// encoding, with every operator counted a cache hit and none a miss —
// the counters the prediction cache reports once it holds them all —
// and every other byte untouched. nil when body does not end in r's
// counters, which no Response without an Explain encodes to.
func ReplayWire(body []byte, r *Response) []byte {
	if r.CacheMisses == 0 {
		return body
	}
	var tail [64]byte
	head, ok := bytes.CutSuffix(body, appendCounters(tail[:0], r.CacheHits, r.CacheMisses))
	if !ok {
		return nil
	}
	out := make([]byte, 0, len(body)+1) // the sum may be a digit longer than its terms
	return appendCounters(append(out, head...), r.CacheHits+r.CacheMisses, 0)
}

func appendBatchResponse(dst []byte, r *BatchResponse) ([]byte, bool) {
	e := wireEncoder{b: dst, ok: true}
	e.header(&r.Model, r.Models, r.Resources)
	e.raw(`,"plans":`)
	if r.Plans == nil {
		e.raw("null")
	} else {
		e.raw("[")
		for i := range r.Plans {
			pe := &r.Plans[i]
			if i > 0 {
				e.raw(",")
			}
			e.float(`{"total":`, pe.Total)
			e.floats(`,"totals":`, pe.Totals)
			e.estimates(pe.Operators, pe.Pipelines)
			e.raw("}")
		}
		e.raw("]")
	}
	e.b = appendCounters(e.b, r.CacheHits, r.CacheMisses)
	return e.b, e.ok
}

// A response opens with the ModelInfo of the version that served it,
// the same value for every response until the next publish, so its
// encoding — encoding/json's, timestamp and all — is kept per value.
// The bound only matters to a process that outlives thousands of
// hot-swaps.
var modelInfoJSON struct {
	sync.RWMutex
	m map[ModelInfo][]byte
}

const maxModelInfoJSON = 256

func (e *wireEncoder) modelInfo(info *ModelInfo) {
	modelInfoJSON.RLock()
	b, ok := modelInfoJSON.m[*info]
	modelInfoJSON.RUnlock()
	if !ok {
		var err error
		if b, err = marshalStd(info); err != nil {
			e.ok = false
			return
		}
		b = b[:len(b)-1] // Encode's newline
		modelInfoJSON.Lock()
		if modelInfoJSON.m == nil || len(modelInfoJSON.m) >= maxModelInfoJSON {
			modelInfoJSON.m = make(map[ModelInfo][]byte)
		}
		modelInfoJSON.m[*info] = b
		modelInfoJSON.Unlock()
	}
	e.b = append(e.b, b...)
}
