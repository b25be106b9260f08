package plan

import (
	"math"
	"strconv"

	"repro/internal/jsonscan"
)

// EncodeJSON runs once per logged observation and per captured
// exemplar, and json.Marshal pays for it with a copy of the tree into
// Wire/WireNode and a reflective walk of that. appendPlan writes the
// same bytes straight from the plan, under the decoder's contract in
// the other direction (decode.go): Wire's field order, zero fields
// omitted, jsonscan.AppendFloat's number format — and it declines,
// returning false, on anything json.Marshal would treat specially: a
// NaN or infinite number (stdlib's error to report), a negative zero
// (whether omitempty drops it has changed between Go releases) and a
// tag or table name that needs escaping. EncodeJSON then runs
// json.Marshal wholesale. The one rule: whenever appendPlan says it
// encoded, the bytes are json.Marshal's. FuzzPlanEncode pins exactly
// that.

// appendPlan appends p's wire encoding to dst.
func appendPlan(dst []byte, p *Plan) ([]byte, bool) {
	dst = append(dst, `{"version":`...)
	dst = strconv.AppendInt(dst, WireVersion, 10)
	ok := true
	if p.Tag != "" {
		dst = append(dst, `,"tag":`...)
		dst, ok = jsonscan.AppendString(dst, p.Tag)
	}
	dst = append(dst, `,"root":`...)
	if dst, ok = appendNode(dst, p.Root, ok); !ok {
		return nil, false
	}
	return append(dst, '}'), true
}

// appendNode appends one operator object. ok threads through every
// field so a decline is checked once per node, not once per field.
func appendNode(dst []byte, n *Node, ok bool) ([]byte, bool) {
	dst = append(dst, `{"kind":`...)
	dst, ok = appendString(dst, n.Kind.String(), ok)
	if n.Table != "" {
		dst = append(dst, `,"table":`...)
		dst, ok = appendString(dst, n.Table, ok)
	}
	dst, ok = appendFloat(dst, `,"table_rows":`, n.TableRows, ok)
	dst, ok = appendFloat(dst, `,"table_pages":`, n.TablePages, ok)
	dst, ok = appendFloat(dst, `,"table_cols":`, n.TableCols, ok)
	dst, ok = appendFloat(dst, `,"index_depth":`, n.IndexDepth, ok)
	dst, ok = appendFloat(dst, `,"est_io_cost":`, n.EstIOCost, ok)
	dst, ok = appendFloat(dst, `,"out_rows":`, n.Out.Rows, ok)
	dst, ok = appendFloat(dst, `,"out_width":`, n.Out.Width, ok)
	dst, ok = appendFloat(dst, `,"est_out_rows":`, n.EstOut.Rows, ok)
	dst, ok = appendFloat(dst, `,"est_out_width":`, n.EstOut.Width, ok)
	dst = appendInt(dst, `,"sort_cols":`, n.SortCols)
	dst = appendInt(dst, `,"hash_cols":`, n.HashCols)
	dst = appendInt(dst, `,"inner_cols":`, n.InnerCols)
	dst = appendInt(dst, `,"outer_cols":`, n.OuterCols)
	dst, ok = appendFloat(dst, `,"hash_op_avg":`, n.HashOpAvg, ok)
	dst, ok = appendFloat(dst, `,"selectivity":`, n.Selectivity, ok)
	dst, ok = appendFloat(dst, `,"executions":`, n.Executions, ok)
	dst, ok = appendFloat(dst, `,"est_executions":`, n.EstExecutions, ok)
	dst, ok = appendFloat(dst, `,"actual_cpu":`, n.Actual.CPU, ok)
	dst, ok = appendFloat(dst, `,"actual_io":`, n.Actual.IO, ok)
	if !ok {
		return dst, false
	}
	if len(n.Children) > 0 {
		dst = append(dst, `,"children":[`...)
		for i, c := range n.Children {
			if i > 0 {
				dst = append(dst, ',')
			}
			if dst, ok = appendNode(dst, c, true); !ok {
				return dst, false
			}
		}
		dst = append(dst, ']')
	}
	return append(dst, '}'), true
}

func appendString(dst []byte, s string, ok bool) ([]byte, bool) {
	dst, plain := jsonscan.AppendString(dst, s)
	return dst, ok && plain
}

// appendFloat appends `key` and f unless f is omitempty's zero.
func appendFloat(dst []byte, key string, f float64, ok bool) ([]byte, bool) {
	if f == 0 {
		return dst, ok && !math.Signbit(f)
	}
	dst, finite := jsonscan.AppendFloat(append(dst, key...), f)
	return dst, ok && finite
}

func appendInt(dst []byte, key string, v int) []byte {
	if v == 0 {
		return dst
	}
	return strconv.AppendInt(append(dst, key...), int64(v), 10)
}
