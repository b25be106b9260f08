package plan

import "repro/internal/jsonscan"

// The service decodes one plan per estimate, so DecodeJSON is the hot
// path of every transport. encoding/json pays for that with a validity
// scan, a reflective decode into Wire/WireNode and a second tree of
// Node copied out of it. fastDecode instead walks the wire bytes once
// and builds the validated plan directly, under the contract of the
// request envelope walker (internal/serve/envelope.go): it handles the
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

// Decoder is the single-pass decoder and the arena its plans' nodes are
// carved from. The arena grows a chunk at a time as nodes are actually
// parsed, so what a body costs in memory follows the operators it
// really holds, and the plans of one batch share chunks. The zero
// Decoder is ready to use.
type Decoder struct {
	b     []byte
	next  int    // the next preorder ID of the plan being decoded
	slots []slot // unclaimed rest of the current chunk
}

// slot is one arena element: a node and the backing array of its
// Children (no operator takes more than two inputs).
type slot struct {
	Node
	kids [2]*Node
}

// fastDecode reports whether it fully decoded b on the fast path.
// false means "retry with encoding/json", not "invalid".
func fastDecode(b []byte) (*Plan, bool) {
	var d Decoder
	p, end, ok := d.DecodeAt(b, jsonscan.SkipWS(b, 0))
	if !ok || jsonscan.SkipWS(b, end) != len(b) {
		return nil, false
	}
	return p, true
}

// DecodeAt decodes the canonically shaped plan that starts at b[i],
// inside a larger buffer or not, and returns it with the index one past
// its closing brace. ok=false means the fast path declines the value —
// it may be a valid plan, another JSON value or no JSON at all — and
// leaves it to DecodeJSON over its validated extent.
func (d *Decoder) DecodeAt(b []byte, i int) (p *Plan, end int, ok bool) {
	d.b, d.next = b, 0
	if i >= len(b) || b[i] != '{' {
		return nil, 0, false
	}
	p = &Plan{}
	var seenVersion, seenTag bool
	for i = jsonscan.SkipWS(b, i+1); ; {
		key, at, ok := jsonscan.Key(b, i)
		if !ok {
			return nil, 0, false
		}
		i = at
		switch string(key) {
		case "version":
			end, ok := jsonscan.NumberEnd(b, i)
			if !ok || seenVersion {
				return nil, 0, false
			}
			if v, ok := jsonscan.Int(b[i:end]); !ok || v != WireVersion {
				return nil, 0, false
			}
			seenVersion, i = true, end
		case "tag":
			s, end, ok := jsonscan.PlainString(b, i)
			if !ok || seenTag {
				return nil, 0, false
			}
			p.Tag, seenTag, i = string(s), true, end
		case "root":
			if p.Root != nil {
				return nil, 0, false
			}
			if p.Root, i, ok = d.node(i, 1); !ok {
				return nil, 0, false
			}
		default:
			return nil, 0, false
		}
		var last bool
		if i, last, ok = jsonscan.Next(b, i, '}'); !ok {
			return nil, 0, false
		}
		if last {
			break
		}
	}
	if !seenVersion || p.Root == nil {
		return nil, 0, false
	}
	return p, i, true
}

// node decodes the operator object at i, nested depth JSON levels
// deep, and returns the index one past it. The node takes its
// preorder ID as its object opens — before any child is parsed,
// whichever order the keys come in.
func (d *Decoder) node(i, depth int) (*Node, int, bool) {
	b := d.b
	if i >= len(b) || b[i] != '{' || depth > jsonscan.MaxDepth {
		return nil, 0, false
	}
	if len(d.slots) == 0 {
		// What the rest of the body holds at a generated operator's 200
		// to 300 bytes, so a lone plan takes one chunk — capped, which
		// keeps a batch's chunks few and a crafted body's small.
		d.slots = make([]slot, min((len(b)-i)/192+1, 64))
	}
	s := &d.slots[0]
	d.slots = d.slots[1:]
	n := &s.Node
	n.ID = d.next
	d.next++

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
			if fp != nil {
				*fp, i, ok = jsonscan.Float(b, i)
			} else if end, ok = jsonscan.NumberEnd(b, i); ok {
				*ip, ok = jsonscan.Int(b[i:end])
				i = end
			}
			if !ok {
				return nil, 0, false
			}
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
			if i, ok = d.children(s, i, depth+1); !ok {
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

// children decodes the non-empty children array at i into s's node
// and returns the index one past it.
func (d *Decoder) children(s *slot, i, depth int) (int, bool) {
	b := d.b
	if i >= len(b) || b[i] != '[' {
		return 0, false
	}
	// A longer array is a Validate failure, so the walk can stop at the
	// third element.
	k := 0
	for i = jsonscan.SkipWS(b, i+1); ; {
		if k == len(s.kids) {
			return 0, false
		}
		var ok bool
		if s.kids[k], i, ok = d.node(i, depth+1); !ok {
			return 0, false
		}
		k++
		var last bool
		if i, last, ok = jsonscan.Next(b, i, ']'); !ok {
			return 0, false
		}
		if last {
			s.Children = s.kids[:k:k]
			return i, true
		}
	}
}
