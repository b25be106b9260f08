// Package plan defines the physical query plan representation shared by
// the whole repository: a tree of physical operators annotated with both
// true and optimizer-estimated cardinalities, operator parameters, and —
// after execution by the engine simulator — measured per-operator
// resource consumption.
//
// This mirrors the granularity the paper models at: features, training
// and estimation all happen per plan operator (§5.2), with pipeline- and
// query-level numbers obtained by aggregation.
package plan

import (
	"fmt"
	"math"
	"strings"
)

// OpKind enumerates the physical operators the simulator supports. The
// set matches the operators named by the paper's feature tables (seek,
// scan, filter, sort, hash aggregate/join, merge join, nested loop join)
// plus the auxiliary operators needed to build realistic plans.
type OpKind int

const (
	TableScan OpKind = iota
	IndexScan
	IndexSeek
	Filter
	Sort
	HashJoin
	MergeJoin
	NestedLoopJoin // index nested loop: inner side seeks per outer tuple
	HashAggregate
	StreamAggregate
	ComputeScalar
	Top
	numKinds
)

// NumKinds is the number of operator kinds; valid kinds are [0, NumKinds).
const NumKinds = int(numKinds)

// Kinds lists every operator kind, in declaration order.
func Kinds() []OpKind {
	ks := make([]OpKind, NumKinds)
	for i := range ks {
		ks[i] = OpKind(i)
	}
	return ks
}

// String returns the operator name as shown in plan printouts.
func (k OpKind) String() string {
	switch k {
	case TableScan:
		return "TableScan"
	case IndexScan:
		return "IndexScan"
	case IndexSeek:
		return "IndexSeek"
	case Filter:
		return "Filter"
	case Sort:
		return "Sort"
	case HashJoin:
		return "HashJoin"
	case MergeJoin:
		return "MergeJoin"
	case NestedLoopJoin:
		return "NestedLoopJoin"
	case HashAggregate:
		return "HashAggregate"
	case StreamAggregate:
		return "StreamAggregate"
	case ComputeScalar:
		return "ComputeScalar"
	case Top:
		return "Top"
	}
	return fmt.Sprintf("OpKind(%d)", int(k))
}

// IsLeaf reports whether the operator reads a base table (no children).
func (k OpKind) IsLeaf() bool {
	return k == TableScan || k == IndexScan || k == IndexSeek
}

// IsJoin reports whether the operator has two inputs.
func (k OpKind) IsJoin() bool {
	return k == HashJoin || k == MergeJoin || k == NestedLoopJoin
}

// NumChildren returns the required child count for the operator kind.
func (k OpKind) NumChildren() int {
	switch {
	case k.IsLeaf():
		return 0
	case k.IsJoin():
		return 2
	default:
		return 1
	}
}

// Cardinality carries the row count and average tuple width of an
// operator's output stream.
type Cardinality struct {
	Rows  float64 // number of tuples
	Width float64 // average tuple width in bytes
}

// Bytes returns Rows × Width.
func (c Cardinality) Bytes() float64 { return c.Rows * c.Width }

// ResourceKind selects one of the two resource types the paper models.
type ResourceKind int

const (
	CPUTime   ResourceKind = iota // CPU milliseconds
	LogicalIO                     // logical page reads
	numResources
)

// NumResources is the number of resource kinds — the fan-out width of
// multi-resource estimation (arrays indexed by ResourceKind use it).
const NumResources = int(numResources)

// ResourceKinds lists every resource kind, in declaration order.
func ResourceKinds() []ResourceKind {
	ks := make([]ResourceKind, NumResources)
	for i := range ks {
		ks[i] = ResourceKind(i)
	}
	return ks
}

// Valid reports whether k is a known resource kind.
func (k ResourceKind) Valid() bool { return k >= 0 && k < numResources }

// String names the resource for reports.
func (k ResourceKind) String() string {
	if k == CPUTime {
		return "CPU"
	}
	return "IO"
}

// WireName is the lowercase identifier used on every external surface
// (HTTP request/response fields, store manifests): "cpu" or "io".
func (k ResourceKind) WireName() string {
	if k == CPUTime {
		return "cpu"
	}
	return "io"
}

// Resources holds the measured (or predicted) consumption of a single
// operator: the two resource types the paper models.
type Resources struct {
	CPU float64 // CPU time in milliseconds
	IO  float64 // logical I/O operations (page reads)
}

// Get returns the component selected by k.
func (r Resources) Get(k ResourceKind) float64 {
	if k == CPUTime {
		return r.CPU
	}
	return r.IO
}

// Set assigns the component selected by k.
func (r *Resources) Set(k ResourceKind, v float64) {
	if k == CPUTime {
		r.CPU = v
		return
	}
	r.IO = v
}

// Add accumulates r2 into r.
func (r *Resources) Add(r2 Resources) {
	r.CPU += r2.CPU
	r.IO += r2.IO
}

// Node is one physical operator in a plan tree.
type Node struct {
	ID       int // stable preorder identifier within the plan
	Kind     OpKind
	Children []*Node

	// Base-table metadata (leaf operators only). These are known exactly
	// before execution from the catalog, as the paper notes for
	// table-scanning operators.
	Table      string
	TableRows  float64 // TSIZE feature
	TablePages float64 // PAGES feature
	TableCols  float64 // TCOLUMNS feature
	IndexDepth float64 // INDEXDEPTH feature (seeks)
	EstIOCost  float64 // ESTIOCOST feature, set by the optimizer

	// True and optimizer-estimated output cardinalities. True values are
	// computed by the workload generator from the data synopses; the
	// estimates come from internal/optimizer and embed its biases.
	Out    Cardinality
	EstOut Cardinality

	// Operator parameters.
	SortCols    int     // CSORTCOL
	HashCols    int     // CHASHCOL
	InnerCols   int     // CINNERCOL
	OuterCols   int     // COUTERCOL
	HashOpAvg   float64 // HASHOPAVG: hashing operations per tuple
	Selectivity float64 // filters: output/input row ratio (true)
	// Executions is how many times the operator is invoked (> 1 only for
	// the inner side of a nested loop join, which seeks once per outer
	// row). Out.Rows holds the total across executions. Zero means 1.
	// EstExecutions is the optimizer's estimate of the same count.
	Executions    float64
	EstExecutions float64

	// Actual measured resource usage, filled in by the engine.
	Actual Resources
}

// NewLeaf constructs a base-table operator node.
func NewLeaf(kind OpKind, table string) *Node {
	if !kind.IsLeaf() {
		panic("plan: NewLeaf with non-leaf kind " + kind.String())
	}
	return &Node{Kind: kind, Table: table}
}

// NewUnary constructs a single-input operator node.
func NewUnary(kind OpKind, child *Node) *Node {
	if kind.NumChildren() != 1 {
		panic("plan: NewUnary with kind " + kind.String())
	}
	return &Node{Kind: kind, Children: []*Node{child}}
}

// NewJoin constructs a two-input operator node. For HashJoin, left is the
// build side; for NestedLoopJoin, left is the outer side and right must
// be an IndexSeek-rooted inner.
func NewJoin(kind OpKind, left, right *Node) *Node {
	if !kind.IsJoin() {
		panic("plan: NewJoin with kind " + kind.String())
	}
	return &Node{Kind: kind, Children: []*Node{left, right}}
}

// Plan is a rooted operator tree.
type Plan struct {
	Root *Node
	// Tag carries workload bookkeeping (template id etc.); opaque here.
	Tag string
}

// New numbers the nodes of the tree in preorder and returns the plan.
func New(root *Node, tag string) *Plan {
	p := &Plan{Root: root, Tag: tag}
	id := 0
	p.Walk(func(n *Node) {
		n.ID = id
		id++
	})
	return p
}

// Walk visits every node in preorder.
func (p *Plan) Walk(fn func(*Node)) {
	var rec func(*Node)
	rec = func(n *Node) {
		if n == nil {
			return
		}
		fn(n)
		for _, c := range n.Children {
			rec(c)
		}
	}
	rec(p.Root)
}

// Nodes returns all nodes in preorder.
func (p *Plan) Nodes() []*Node {
	var out []*Node
	p.Walk(func(n *Node) { out = append(out, n) })
	return out
}

// NumNodes returns the operator count.
func (p *Plan) NumNodes() int {
	n := 0
	p.Walk(func(*Node) { n++ })
	return n
}

// TotalActual sums the measured resources over all operators — the
// query-level truth the experiments compare against.
func (p *Plan) TotalActual() Resources {
	var r Resources
	p.Walk(func(n *Node) { r.Add(n.Actual) })
	return r
}

// Validate checks structural invariants: child counts per kind, leaves
// carrying table metadata, and cardinalities that are numbers and not
// negative. It returns the first violation found.
func (p *Plan) Validate() error {
	var err error
	p.Walk(func(n *Node) {
		if err == nil {
			err = n.validate()
		}
	})
	return err
}

// validate checks one node's invariants (its children's kinds
// included, their subtrees not).
func (n *Node) validate() error {
	if want, got := n.Kind.NumChildren(), len(n.Children); want != got {
		return fmt.Errorf("plan: node %d (%s) has %d children, want %d", n.ID, n.Kind, got, want)
	}
	if n.Kind.IsLeaf() {
		if n.Table == "" {
			return fmt.Errorf("plan: leaf node %d (%s) missing table", n.ID, n.Kind)
		}
		if !(n.TableRows > 0 && n.TablePages > 0) { // NaN is no statistic either
			return fmt.Errorf("plan: leaf node %d (%s %s) missing table stats", n.ID, n.Kind, n.Table)
		}
	}
	if n.Out.Rows < 0 || n.Out.Width < 0 {
		return fmt.Errorf("plan: node %d (%s) negative cardinality", n.ID, n.Kind)
	}
	if math.IsNaN(n.Out.Rows) || math.IsNaN(n.Out.Width) {
		return fmt.Errorf("plan: node %d (%s) NaN cardinality", n.ID, n.Kind)
	}
	if n.Kind == NestedLoopJoin && n.Children[1].Kind != IndexSeek {
		return fmt.Errorf("plan: node %d nested loop inner must be IndexSeek, got %s", n.ID, n.Children[1].Kind)
	}
	return nil
}

// String renders the plan as an indented tree with cardinalities, e.g.
//
//	HashJoin out=1000 est=800
//	  TableScan(customer) out=150000 est=150000
//	  Filter out=5000 est=4000
//	    TableScan(orders) ...
func (p *Plan) String() string {
	var b strings.Builder
	var rec func(n *Node, depth int)
	rec = func(n *Node, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(n.Kind.String())
		if n.Table != "" {
			fmt.Fprintf(&b, "(%s)", n.Table)
		}
		fmt.Fprintf(&b, " out=%.0f est=%.0f w=%.0f", n.Out.Rows, n.EstOut.Rows, n.Out.Width)
		if n.Actual.CPU > 0 || n.Actual.IO > 0 {
			fmt.Fprintf(&b, " cpu=%.2fms io=%.0f", n.Actual.CPU, n.Actual.IO)
		}
		b.WriteByte('\n')
		for _, c := range n.Children {
			rec(c, depth+1)
		}
	}
	rec(p.Root, 0)
	return b.String()
}
