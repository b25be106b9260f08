package engine

import (
	"fmt"
	"math"

	"repro/internal/plan"
	"repro/internal/xrand"
)

// Engine executes plans against a hardware profile, filling in each
// node's Actual resources.
type Engine struct {
	prof *Profile
	rng  *xrand.Rand
}

// New returns an engine over the given profile (nil selects the default).
func New(prof *Profile) *Engine {
	if prof == nil {
		prof = DefaultProfile()
	}
	return &Engine{prof: prof, rng: xrand.New(prof.Seed)}
}

// Run simulates the execution of p, filling n.Actual for every node and
// returning the plan-level totals. The measurement noise is deterministic
// in (profile seed, plan tag, node id), so re-running the same plan
// reproduces identical measurements, while distinct queries observe
// independent noise — matching repeated measurements on a quiet server.
func (e *Engine) Run(p *plan.Plan) plan.Resources {
	planRNG := e.rng.Split(p.Tag)
	p.Walk(func(n *plan.Node) {
		res := e.operatorCost(n)
		noise := planRNG.SplitN(uint64(n.ID)).Noise(e.prof.NoiseCV)
		res.CPU *= noise
		// Logical I/O is a deterministic page count; it does not jitter.
		n.Actual = res
	})
	return p.TotalActual()
}

// inputCard returns the output cardinality of child i, or a zero value.
func inputCard(n *plan.Node, i int) plan.Cardinality {
	if i < len(n.Children) {
		return n.Children[i].Out
	}
	return plan.Cardinality{}
}

// operatorCost computes the noise-free resource consumption of a single
// operator from its true cardinalities and parameters.
func (e *Engine) operatorCost(n *plan.Node) plan.Resources {
	pr := e.prof
	out := n.Out
	switch n.Kind {
	case plan.TableScan, plan.IndexScan:
		// Full scan: every page is read, every stored row decoded. The
		// CPU depends on the *stored* row width (approximated by output
		// width for scans, which project little), the I/O on the page
		// count. Index scans traverse the narrower leaf level.
		pages := n.TablePages
		tupleCPU := pr.ScanTupleCPU
		if n.Kind == plan.IndexScan {
			pages = math.Ceil(n.TablePages * 0.7)
			tupleCPU = pr.ScanTupleCPU * 0.9
		}
		cpu := n.TableRows*(tupleCPU+pr.rowByteCPU(out.Width)) + pages*pr.PageCPU
		// Residual predicate evaluation on scanned rows is part of the
		// scan operator in SQL Server; model it against rows scanned.
		cpu += out.Rows * pr.OutputTupleCPU
		return plan.Resources{CPU: cpu, IO: pages}

	case plan.IndexSeek:
		// One B-tree descent plus a range scan of the qualifying rows.
		// When the seek is the inner of a nested loop (Executions > 1),
		// the repeated descents are charged to the join operator — the
		// loop drives them, and only the join's features (outer
		// cardinality, inner table size) can explain their cost; this is
		// also how the paper's feature set models it (CIN × SSEEKTABLE).
		depth := n.IndexDepth
		if depth < 2 {
			depth = 2
		}
		descend := depth * pr.SeekDescendCPU
		fetch := out.Rows * (pr.SeekTupleCPU + pr.rowByteCPU(out.Width))
		leafPages := math.Ceil(out.Rows / pr.TuplesPerIOPage)
		return plan.Resources{CPU: descend + fetch, IO: depth + leafPages}

	case plan.Filter:
		in := inputCard(n, 0)
		cpu := in.Rows*(pr.FilterTupleCPU+0.08*pr.rowByteCPU(in.Width)) +
			out.Rows*pr.OutputTupleCPU
		return plan.Resources{CPU: cpu, IO: 0}

	case plan.Sort:
		in := inputCard(n, 0)
		nrows := math.Max(in.Rows, 1)
		cols := float64(max(n.SortCols, 1))
		// Comparison cost grows with the number of sort columns, but
		// sub-linearly (later keys are rarely compared).
		cmp := pr.SortCmpCPU * (1 + 0.35*(cols-1))
		cpu := nrows*math.Log2(nrows+1)*cmp + nrows*pr.rowByteCPU(in.Width)
		passes := e.sortPasses(in.Bytes())
		cpu *= 1 + pr.SpillPassCPU*float64(passes)
		var io float64
		if passes > 0 {
			dataPages := math.Ceil(in.Bytes() / pr.PageBytes)
			io = 2 * dataPages * float64(passes)
		}
		cpu += out.Rows * pr.OutputTupleCPU
		return plan.Resources{CPU: cpu, IO: io}

	case plan.HashJoin:
		build := inputCard(n, 0)
		probe := inputCard(n, 1)
		hashOps := math.Max(n.HashOpAvg, 1)
		cpu := build.Rows*(hashOps*pr.HashOpCPU+pr.HashInsertCPU+0.5*pr.rowByteCPU(build.Width)) +
			probe.Rows*(hashOps*pr.HashOpCPU+pr.HashProbeCPU) +
			out.Rows*(pr.OutputTupleCPU+0.25*pr.rowByteCPU(out.Width))
		var io float64
		if build.Bytes() > pr.WorkMemBytes {
			// Grace partitioning: one extra read+write of both inputs,
			// recursively if the build side is far larger than memory.
			levels := math.Ceil(math.Log(build.Bytes()/pr.WorkMemBytes) / math.Log(pr.SortRunFanout))
			if levels < 1 {
				levels = 1
			}
			spillPages := math.Ceil((build.Bytes() + probe.Bytes()) / pr.PageBytes)
			io = 2 * spillPages * levels
			cpu *= 1 + 0.35*levels
		}
		return plan.Resources{CPU: cpu, IO: io}

	case plan.MergeJoin:
		left := inputCard(n, 0)
		right := inputCard(n, 1)
		cols := float64(max(n.InnerCols, 1))
		cmp := pr.MergeCmpCPU * (1 + 0.3*(cols-1))
		cpu := (left.Rows+right.Rows)*cmp +
			out.Rows*(pr.OutputTupleCPU+0.25*pr.rowByteCPU(out.Width))
		return plan.Resources{CPU: cpu, IO: 0}

	case plan.NestedLoopJoin:
		outer := inputCard(n, 0)
		cpu := outer.Rows*pr.LoopIterCPU +
			out.Rows*(pr.OutputTupleCPU+0.25*pr.rowByteCPU(out.Width))
		// Per-outer-row descents into the inner index (see IndexSeek):
		// outer × depth ≈ outer × log(inner table size).
		var io float64
		if len(n.Children) > 1 && n.Children[1].Kind == plan.IndexSeek {
			inner := n.Children[1]
			depth := inner.IndexDepth
			if depth < 2 {
				depth = 2
			}
			descend := outer.Rows * depth * pr.SeekDescendCPU
			if outer.Rows >= pr.BatchThreshold {
				// Batch sort optimization localizes references ([13, 11]).
				descend *= pr.BatchDiscount
			}
			cpu += descend
			io = outer.Rows * depth
		}
		return plan.Resources{CPU: cpu, IO: io}

	case plan.HashAggregate:
		in := inputCard(n, 0)
		hashOps := math.Max(n.HashOpAvg, 1)
		cpu := in.Rows*(hashOps*pr.HashOpCPU+pr.AggCPU) +
			out.Rows*(pr.HashInsertCPU+pr.OutputTupleCPU)
		var io float64
		if groupBytes := out.Bytes(); groupBytes > pr.WorkMemBytes {
			spillPages := math.Ceil(in.Bytes() / pr.PageBytes)
			io = 2 * spillPages
			cpu *= 1.4
		}
		return plan.Resources{CPU: cpu, IO: io}

	case plan.StreamAggregate:
		in := inputCard(n, 0)
		cpu := in.Rows*pr.AggCPU + out.Rows*pr.OutputTupleCPU
		return plan.Resources{CPU: cpu, IO: 0}

	case plan.ComputeScalar:
		in := inputCard(n, 0)
		return plan.Resources{CPU: in.Rows * pr.ExprCPU, IO: 0}

	case plan.Top:
		in := inputCard(n, 0)
		return plan.Resources{CPU: in.Rows*0.3*pr.FilterTupleCPU + out.Rows*pr.OutputTupleCPU, IO: 0}
	}
	panic(fmt.Sprintf("engine: unknown operator kind %v", n.Kind))
}

// sortPasses returns the number of extra merge passes a sort of the
// given input size needs (0 = in-memory).
func (e *Engine) sortPasses(bytes float64) int {
	if bytes <= e.prof.WorkMemBytes {
		return 0
	}
	runs := bytes / e.prof.WorkMemBytes
	passes := int(math.Ceil(math.Log(runs) / math.Log(e.prof.SortRunFanout)))
	if passes < 1 {
		passes = 1
	}
	return passes
}
