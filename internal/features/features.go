// Package features extracts the paper's operator-level feature vectors
// (Tables 1 and 2) from plan nodes and encodes the feature-dependency
// relation (Table 3) used to normalize dependent features when scaling.
//
// Features come in two modes: Exact (true input/output cardinalities,
// §7.1.1) and Estimated (optimizer-estimated cardinalities, §7.1.2).
// Catalog-derived features of table-scanning leaves (TSIZE, PAGES, ...)
// are exact in both modes, as the paper notes they are known a priori.
package features

import (
	"fmt"

	"repro/internal/plan"
)

// ID identifies one feature. The two per-child global features of
// Table 1 are materialized per child slot (operators have ≤ 2 inputs).
type ID int

const (
	// Global features (Table 1).
	COut        ID = iota // number of output tuples
	SOutAvg               // average width of output tuples (bytes)
	SOutTot               // total bytes output
	CIn1                  // input tuples, child 1
	SInAvg1               // average input width, child 1
	SInTot1               // total bytes input, child 1
	CIn2                  // input tuples, child 2
	SInAvg2               // average input width, child 2
	SInTot2               // total bytes input, child 2
	OutputUsage           // operator type of the parent (categorical)

	// Operator-specific features (Table 2).
	TSize      // size of input table in tuples (seek/scan)
	Pages      // size of input table in pages (seek/scan)
	TColumns   // number of columns in a tuple (seek/scan)
	EstIOCost  // optimizer-estimated I/O cost (seek/scan)
	IndexDepth // levels of the index access path (seek)
	HashOpAvg  // hashing operations per tuple (hash agg/join)
	HashOpTot  // HashOpAvg × input tuples (hash agg/join)
	CHashCol   // columns involved in hash (hash agg)
	CInnerCol  // join columns, inner side (joins)
	COuterCol  // join columns, outer side (joins)
	SSeekTable // tuples in the inner table (nested loop)
	MinComp    // input tuples × sort columns (sort)
	CSortCol   // columns involved in sort (sort)
	SInSum     // total bytes input over all children (merge join)

	NumFeatures
)

var names = [NumFeatures]string{
	"COUT", "SOUTAVG", "SOUTTOT",
	"CIN1", "SINAVG1", "SINTOT1",
	"CIN2", "SINAVG2", "SINTOT2",
	"OUTPUTUSAGE",
	"TSIZE", "PAGES", "TCOLUMNS", "ESTIOCOST", "INDEXDEPTH",
	"HASHOPAVG", "HASHOPTOT", "CHASHCOL", "CINNERCOL", "COUTERCOL",
	"SSEEKTABLE", "MINCOMP", "CSORTCOL", "SINSUM",
}

// String returns the paper's name for the feature.
func (id ID) String() string {
	if id >= 0 && id < NumFeatures {
		return names[id]
	}
	return fmt.Sprintf("ID(%d)", int(id))
}

// Mode selects the cardinality source for cardinality-bearing features.
type Mode int

const (
	// Exact uses true input/output cardinalities (§7.1.1).
	Exact Mode = iota
	// Estimated uses optimizer estimates (§7.1.2), embedding the
	// optimizer's cardinality-estimation bias into the features.
	Estimated
)

// String returns the mode's name in model listings and store
// manifests: "estimated", or "exact" for every other value, which
// extraction treats as Exact.
func (m Mode) String() string {
	if m == Estimated {
		return "estimated"
	}
	return "exact"
}

// Vector is a dense feature vector indexed by ID.
type Vector [NumFeatures]float64

// Get returns the value of feature id.
func (v *Vector) Get(id ID) float64 { return v[id] }

// Set assigns feature id.
func (v *Vector) Set(id ID, x float64) { v[id] = x }

// Extract computes the feature vector of node n. parent may be nil (root
// operator). The mode selects true or estimated cardinalities.
func Extract(n *plan.Node, parent *plan.Node, mode Mode) Vector {
	var v Vector
	ExtractInto(&v, n, parent, mode)
	return v
}

// ExtractInto is Extract writing the vector to *v, every feature of it,
// in place — for a caller whose vector lives inside a larger value.
func ExtractInto(v *Vector, n *plan.Node, parent *plan.Node, mode Mode) {
	*v = Vector{}
	out := n.Out
	if mode == Estimated {
		out = n.EstOut
	}
	v[COut] = out.Rows
	v[SOutAvg] = out.Width
	v[SOutTot] = out.Bytes()

	var inTuples, inBytesSum float64
	childSlots := [2][3]ID{{CIn1, SInAvg1, SInTot1}, {CIn2, SInAvg2, SInTot2}}
	for i, c := range n.Children {
		if i >= 2 {
			break
		}
		cc := c.Out
		if mode == Estimated {
			cc = c.EstOut
		}
		v[childSlots[i][0]] = cc.Rows
		v[childSlots[i][1]] = cc.Width
		v[childSlots[i][2]] = cc.Bytes()
		inTuples += cc.Rows
		inBytesSum += cc.Bytes()
	}
	if n.Kind.IsLeaf() {
		// A leaf's "input" is the rows it fetches from the table/index.
		inTuples = out.Rows
	}

	if parent != nil {
		v[OutputUsage] = float64(parent.Kind) + 1 // 0 = no parent
	}

	// Operator-specific features. Leaf/table features are exact in both
	// modes (catalog metadata).
	if n.Kind.IsLeaf() {
		v[TSize] = n.TableRows
		v[Pages] = n.TablePages
		v[TColumns] = n.TableCols
		v[EstIOCost] = n.EstIOCost
	}
	if n.Kind == plan.IndexSeek {
		v[IndexDepth] = n.IndexDepth
	}
	switch n.Kind {
	case plan.HashJoin, plan.HashAggregate:
		v[HashOpAvg] = maxf(n.HashOpAvg, 1)
		v[HashOpTot] = v[HashOpAvg] * inTuples
	}
	if n.Kind == plan.HashAggregate {
		v[CHashCol] = float64(maxi(n.HashCols, 1))
	}
	if n.Kind.IsJoin() {
		v[CInnerCol] = float64(maxi(n.InnerCols, 1))
		v[COuterCol] = float64(maxi(n.OuterCols, 1))
	}
	if n.Kind == plan.NestedLoopJoin {
		// Inner child is the per-outer-row index seek.
		v[SSeekTable] = n.Children[1].TableRows
	}
	if n.Kind == plan.Sort {
		cols := float64(maxi(n.SortCols, 1))
		v[CSortCol] = cols
		v[MinComp] = v[CIn1] * cols
	}
	if n.Kind == plan.MergeJoin {
		v[SInSum] = inBytesSum
	}
}

// ExtractPlan extracts the feature vector of every node of p in preorder,
// parallel to p.Nodes().
func ExtractPlan(p *plan.Plan, mode Mode) []Vector {
	return AppendPlanVectors(make([]Vector, 0, p.NumNodes()), p, mode)
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func maxi(a, b int) int {
	if a > b {
		return a
	}
	return b
}
