package plan

import (
	"encoding/json"
	"errors"
	"fmt"
)

// ErrUnknownOp marks a wire plan naming an operator kind this build
// does not know. Callers (e.g. the HTTP layer) match it with errors.Is
// to map the failure to a structured client error.
var ErrUnknownOp = errors.New("plan: unknown operator kind")

// The wire codec is the JSON encoding external clients use to submit
// physical plans to the estimation service (cmd/resserve) instead of
// constructing Go structs. The format is stable and versioned; encoding
// is deterministic (fixed field order, zero-valued fields omitted), so
// encode → decode → encode is byte-identical.
//
// Node IDs are not part of the wire format: plans are encoded in tree
// form and re-numbered in preorder on decode, exactly as New does.
//
// Both directions run hand-written single-pass code for the canonical
// shape (encode.go, decode.go) and hand anything else to encoding/json
// wholesale through the Wire structs below, which define the format;
// the bytes written and the plans built are the same either way.

// WireVersion is the current plan wire-format version.
const WireVersion = 1

// Wire is the wire format's direct Go shape: what the encoding/json
// fallbacks of EncodeJSON and DecodeJSON marshal and unmarshal. The
// fast paths (encode.go, decode.go) never build one.
type Wire struct {
	Version int       `json:"version"`
	Tag     string    `json:"tag,omitempty"`
	Root    *WireNode `json:"root"`
}

// WireNode is one operator of a wire-format plan.
type WireNode struct {
	Kind string `json:"kind"`

	// Base-table metadata (leaves).
	Table      string  `json:"table,omitempty"`
	TableRows  float64 `json:"table_rows,omitempty"`
	TablePages float64 `json:"table_pages,omitempty"`
	TableCols  float64 `json:"table_cols,omitempty"`
	IndexDepth float64 `json:"index_depth,omitempty"`
	EstIOCost  float64 `json:"est_io_cost,omitempty"`

	// True and optimizer-estimated output cardinalities.
	OutRows     float64 `json:"out_rows,omitempty"`
	OutWidth    float64 `json:"out_width,omitempty"`
	EstOutRows  float64 `json:"est_out_rows,omitempty"`
	EstOutWidth float64 `json:"est_out_width,omitempty"`

	// Operator parameters.
	SortCols      int     `json:"sort_cols,omitempty"`
	HashCols      int     `json:"hash_cols,omitempty"`
	InnerCols     int     `json:"inner_cols,omitempty"`
	OuterCols     int     `json:"outer_cols,omitempty"`
	HashOpAvg     float64 `json:"hash_op_avg,omitempty"`
	Selectivity   float64 `json:"selectivity,omitempty"`
	Executions    float64 `json:"executions,omitempty"`
	EstExecutions float64 `json:"est_executions,omitempty"`

	// Measured resources, present only on executed plans (e.g. plans
	// shipped back for retraining).
	ActualCPU float64 `json:"actual_cpu,omitempty"`
	ActualIO  float64 `json:"actual_io,omitempty"`

	Children []*WireNode `json:"children,omitempty"`
}

// kindNames maps wire names back to operator kinds.
var kindNames = func() map[string]OpKind {
	m := make(map[string]OpKind, numKinds)
	for _, k := range Kinds() {
		m[k.String()] = k
	}
	return m
}()

// ParseOpKind resolves an operator name as produced by OpKind.String.
func ParseOpKind(s string) (OpKind, error) {
	k, ok := kindNames[s]
	if !ok {
		return 0, fmt.Errorf("%w %q", ErrUnknownOp, s)
	}
	return k, nil
}

func toWire(n *Node) *WireNode {
	w := &WireNode{
		Kind:          n.Kind.String(),
		Table:         n.Table,
		TableRows:     n.TableRows,
		TablePages:    n.TablePages,
		TableCols:     n.TableCols,
		IndexDepth:    n.IndexDepth,
		EstIOCost:     n.EstIOCost,
		OutRows:       n.Out.Rows,
		OutWidth:      n.Out.Width,
		EstOutRows:    n.EstOut.Rows,
		EstOutWidth:   n.EstOut.Width,
		SortCols:      n.SortCols,
		HashCols:      n.HashCols,
		InnerCols:     n.InnerCols,
		OuterCols:     n.OuterCols,
		HashOpAvg:     n.HashOpAvg,
		Selectivity:   n.Selectivity,
		Executions:    n.Executions,
		EstExecutions: n.EstExecutions,
		ActualCPU:     n.Actual.CPU,
		ActualIO:      n.Actual.IO,
	}
	for _, c := range n.Children {
		w.Children = append(w.Children, toWire(c))
	}
	return w
}

func fromWire(w *WireNode) (*Node, error) {
	if w == nil { // "children":[null]
		return nil, errors.New("null node in children")
	}
	kind, err := ParseOpKind(w.Kind)
	if err != nil {
		return nil, err
	}
	n := &Node{
		Kind:          kind,
		Table:         w.Table,
		TableRows:     w.TableRows,
		TablePages:    w.TablePages,
		TableCols:     w.TableCols,
		IndexDepth:    w.IndexDepth,
		EstIOCost:     w.EstIOCost,
		Out:           Cardinality{Rows: w.OutRows, Width: w.OutWidth},
		EstOut:        Cardinality{Rows: w.EstOutRows, Width: w.EstOutWidth},
		SortCols:      w.SortCols,
		HashCols:      w.HashCols,
		InnerCols:     w.InnerCols,
		OuterCols:     w.OuterCols,
		HashOpAvg:     w.HashOpAvg,
		Selectivity:   w.Selectivity,
		Executions:    w.Executions,
		EstExecutions: w.EstExecutions,
		Actual:        Resources{CPU: w.ActualCPU, IO: w.ActualIO},
	}
	for _, cw := range w.Children {
		c, err := fromWire(cw)
		if err != nil {
			return nil, err
		}
		n.Children = append(n.Children, c)
	}
	return n, nil
}

// EncodeJSON renders the plan in the wire format. A plan of finite
// numbers and names that need no escaping — every plan DecodeJSON's
// fast path accepts — is appended directly; anything else is
// encoding/json's to encode or refuse. The bytes are the same either
// way.
func EncodeJSON(p *Plan) ([]byte, error) {
	if p == nil || p.Root == nil {
		return nil, fmt.Errorf("plan: encode nil plan")
	}
	// A generated operator encodes to 150-250 bytes.
	if b, ok := appendPlan(make([]byte, 0, 64+256*p.NumNodes()), p); ok {
		return b, nil
	}
	return encodeStd(p)
}

// encodeStd is the encoding/json encode: the fallback for plans the
// fast path declines, and the reference it is tested against.
func encodeStd(p *Plan) ([]byte, error) {
	return json.Marshal(&Wire{Version: WireVersion, Tag: p.Tag, Root: toWire(p.Root)})
}

// DecodeJSON parses a wire-format plan, re-numbers its nodes in preorder
// and validates the structural invariants (child counts, leaf table
// stats, non-negative cardinalities). Canonically shaped input — what
// EncodeJSON writes, in any key order and with any whitespace — takes
// the single-pass decoder; everything else, every failure included, is
// encoding/json's to decode and report.
func DecodeJSON(data []byte) (*Plan, error) {
	if p, ok := fastDecode(data); ok {
		return p, nil
	}
	return decodeStd(data)
}

// decodeStd is the encoding/json decode: the fallback for input the
// fast path declines, and the reference it is tested against.
func decodeStd(data []byte) (*Plan, error) {
	var wp Wire
	if err := json.Unmarshal(data, &wp); err != nil {
		return nil, fmt.Errorf("plan: decode: %w", err)
	}
	if wp.Version != WireVersion {
		return nil, fmt.Errorf("plan: decode: unsupported wire version %d", wp.Version)
	}
	if wp.Root == nil {
		return nil, fmt.Errorf("plan: decode: missing root")
	}
	root, err := fromWire(wp.Root)
	if err != nil {
		return nil, fmt.Errorf("plan: decode: %w", err)
	}
	p := New(root, wp.Tag)
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("plan: decode: %w", err)
	}
	return p, nil
}
