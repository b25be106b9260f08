package plan

import (
	"bytes"
	"strconv"

	"repro/internal/jsonscan"
)

// The service decodes one plan per estimate, so DecodeJSON is the hot
// path of every transport. encoding/json pays for that with a validity
// scan, a reflective decode into Wire/WireNode and a second tree of
// Node copied out of it. fastDecode instead walks the wire bytes once
// and builds the validated plan directly, under the contract of the
// stream envelope decoder (internal/stream/request.go): it handles the
// canonical shape only and declines — returns false, never an error —
// on anything else: an unknown, case-folded or duplicate key; an
// escape or invalid UTF-8 in a string; null; "children":[]; a fraction
// or exponent in an int field; an out-of-range number; nesting past
// jsonscan.MaxDepth; trailing bytes; a wrong version; an unknown
// operator; a plan Validate would reject. DecodeJSON then reruns the
// input through encoding/json wholesale, so every error text is
// stdlib's. The one rule: whenever fastDecode says it decoded, the
// plan is reflect.DeepEqual to what the stdlib path builds.
// FuzzPlanDecode pins exactly that.

// planDecoder is the state of one fastDecode call: the input, the
// per-plan node chunk and the backing array the child slices are
// carved from.
type planDecoder struct {
	b     []byte
	nodes []Node
	used  int     // nodes handed out; doubles as the next preorder ID
	kids  []*Node // unclaimed rest of the child backing array
}

// fastDecode reports whether it fully decoded b on the fast path.
// false means "retry with encoding/json", not "invalid".
func fastDecode(b []byte) (*Plan, bool) {
	// Canonical input has one '{' per node plus the envelope's, so one
	// vectorized count sizes the node chunk and the child backing array
	// exactly. A brace inside a tag or table name only wastes a slot;
	// a body with more braces than the shortest node (`{"kind":"Top"}`)
	// leaves room for is left to stdlib rather than turned into an
	// allocation many times its size.
	const minNodeBytes = 14
	count := bytes.Count(b, []byte{'{'}) - 1
	if count < 1 || count > len(b)/minNodeBytes {
		return nil, false
	}
	d := planDecoder{b: b, nodes: make([]Node, count), kids: make([]*Node, count-1)}

	i := jsonscan.SkipWS(b, 0)
	if i >= len(b) || b[i] != '{' {
		return nil, false
	}
	p := &Plan{}
	var seenVersion, seenTag bool
	for i = jsonscan.SkipWS(b, i+1); ; {
		key, end, ok := jsonscan.Key(b, i)
		if !ok {
			return nil, false
		}
		i = end
		switch string(key) {
		case "version":
			end, ok := jsonscan.NumberEnd(b, i)
			if !ok || seenVersion {
				return nil, false
			}
			if v, ok := jsonscan.Int(b[i:end]); !ok || v != WireVersion {
				return nil, false
			}
			seenVersion, i = true, end
		case "tag":
			s, end, ok := jsonscan.PlainString(b, i)
			if !ok || seenTag {
				return nil, false
			}
			p.Tag, seenTag, i = string(s), true, end
		case "root":
			if p.Root != nil {
				return nil, false
			}
			if p.Root, i, ok = d.node(i, 1); !ok {
				return nil, false
			}
		default:
			return nil, false
		}
		var last bool
		if i, last, ok = jsonscan.Next(b, i, '}'); !ok {
			return nil, false
		}
		if last {
			break
		}
	}
	if !seenVersion || p.Root == nil || jsonscan.SkipWS(b, i) != len(b) {
		return nil, false
	}
	return p, true
}

// node decodes the operator object at i, nested depth JSON levels
// deep, and returns the index one past it. The node takes its
// preorder ID as its object opens — before any child is parsed,
// whichever order the keys come in.
func (d *planDecoder) node(i, depth int) (*Node, int, bool) {
	b := d.b
	if i >= len(b) || b[i] != '{' || depth > jsonscan.MaxDepth || d.used == len(d.nodes) {
		return nil, 0, false
	}
	n := &d.nodes[d.used]
	n.ID = d.used
	d.used++

	const kindBit, tableBit, childrenBit = 0, 1, 2
	var seen uint32
	for i = jsonscan.SkipWS(b, i+1); ; {
		key, end, ok := jsonscan.Key(b, i)
		if !ok {
			return nil, 0, false
		}
		i = end
		var (
			bit uint
			fp  *float64
			ip  *int
		)
		switch string(key) {
		case "kind":
			bit = kindBit
		case "table":
			bit = tableBit
		case "children":
			bit = childrenBit
		case "table_rows":
			bit, fp = 3, &n.TableRows
		case "table_pages":
			bit, fp = 4, &n.TablePages
		case "table_cols":
			bit, fp = 5, &n.TableCols
		case "index_depth":
			bit, fp = 6, &n.IndexDepth
		case "est_io_cost":
			bit, fp = 7, &n.EstIOCost
		case "out_rows":
			bit, fp = 8, &n.Out.Rows
		case "out_width":
			bit, fp = 9, &n.Out.Width
		case "est_out_rows":
			bit, fp = 10, &n.EstOut.Rows
		case "est_out_width":
			bit, fp = 11, &n.EstOut.Width
		case "sort_cols":
			bit, ip = 12, &n.SortCols
		case "hash_cols":
			bit, ip = 13, &n.HashCols
		case "inner_cols":
			bit, ip = 14, &n.InnerCols
		case "outer_cols":
			bit, ip = 15, &n.OuterCols
		case "hash_op_avg":
			bit, fp = 16, &n.HashOpAvg
		case "selectivity":
			bit, fp = 17, &n.Selectivity
		case "executions":
			bit, fp = 18, &n.Executions
		case "est_executions":
			bit, fp = 19, &n.EstExecutions
		case "actual_cpu":
			bit, fp = 20, &n.Actual.CPU
		case "actual_io":
			bit, fp = 21, &n.Actual.IO
		default:
			return nil, 0, false
		}
		// stdlib merges a repeated object into the first and lets a
		// repeated scalar win; neither is worth reproducing.
		if seen&(1<<bit) != 0 {
			return nil, 0, false
		}
		seen |= 1 << bit

		switch {
		case fp != nil || ip != nil:
			end, ok := jsonscan.NumberEnd(b, i)
			if !ok {
				return nil, 0, false
			}
			if ip != nil {
				*ip, ok = jsonscan.Int(b[i:end])
			} else {
				*fp, ok = parseFloat(b[i:end])
			}
			if !ok {
				return nil, 0, false
			}
			i = end
		case bit == kindBit:
			s, end, ok := jsonscan.PlainString(b, i)
			if !ok {
				return nil, 0, false
			}
			if n.Kind, ok = kindNames[string(s)]; !ok {
				return nil, 0, false
			}
			i = end
		case bit == tableBit:
			s, end, ok := jsonscan.PlainString(b, i)
			if !ok {
				return nil, 0, false
			}
			n.Table, i = string(s), end
		default:
			if i, ok = d.children(n, i, depth+1); !ok {
				return nil, 0, false
			}
		}

		var last bool
		if i, last, ok = jsonscan.Next(b, i, '}'); !ok {
			return nil, 0, false
		}
		if last {
			break
		}
	}
	if seen&(1<<kindBit) == 0 || n.validate() != nil {
		return nil, 0, false
	}
	return n, i, true
}

// parseFloat converts a validated number literal the way stdlib does —
// strconv.ParseFloat on the literal — so every value is bit-identical;
// an out-of-range literal is stdlib's error to report. A short run of
// plain digits is below 2^53, hence exact as a float64 and the value
// the correctly rounding ParseFloat returns, without the call.
func parseFloat(lit []byte) (float64, bool) {
	n, digits := 0, len(lit) <= 15
	for k := 0; digits && k < len(lit); k++ {
		digits = lit[k] >= '0' && lit[k] <= '9'
		n = n*10 + int(lit[k]-'0')
	}
	if digits {
		return float64(n), true
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	return f, err == nil
}

// children decodes the non-empty children array at i into n.Children,
// carved from the shared backing array.
func (d *planDecoder) children(n *Node, i, depth int) (int, bool) {
	b := d.b
	if i >= len(b) || b[i] != '[' {
		return 0, false
	}
	// No operator takes more than two inputs, so a longer array is a
	// Validate failure and the walk can stop at the third element.
	var kids [2]*Node
	k := 0
	for i = jsonscan.SkipWS(b, i+1); ; {
		if k == len(kids) {
			return 0, false
		}
		var ok bool
		if kids[k], i, ok = d.node(i, depth+1); !ok {
			return 0, false
		}
		k++
		var last bool
		if i, last, ok = jsonscan.Next(b, i, ']'); !ok {
			return 0, false
		}
		if last {
			break
		}
	}
	// Every child took a node slot and the root is nobody's child, so
	// the carves total at most count-1 = the backing array's length.
	n.Children, d.kids = d.kids[:k:k], d.kids[k:]
	copy(n.Children, kids[:k])
	return i, true
}
