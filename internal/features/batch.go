package features

import "repro/internal/plan"

// ExtractPlans extracts the feature vectors of a whole plan batch into
// one contiguous slice — the layout the batched estimation path
// consumes. Plan i's vectors occupy vecs[offs[i]:offs[i+1]], in
// preorder and parallel to plans[i].Nodes(); offs has len(plans)+1
// entries. Vectors are identical to per-plan ExtractPlan output.
func ExtractPlans(plans []*plan.Plan, mode Mode) (vecs []Vector, offs []int) {
	total := 0
	for _, p := range plans {
		total += p.NumNodes()
	}
	vecs = make([]Vector, 0, total)
	offs = make([]int, len(plans)+1)
	for i, p := range plans {
		offs[i] = len(vecs)
		vecs = AppendPlanVectors(vecs, p, mode)
	}
	offs[len(plans)] = len(vecs)
	return vecs, offs
}

// AppendPlanVectors appends the feature vector of every node of p in
// preorder (parallel to p.Nodes()) to dst and returns the extended
// slice, threading each node's parent down the recursion.
func AppendPlanVectors(dst []Vector, p *plan.Plan, mode Mode) []Vector {
	var rec func(n, parent *plan.Node)
	rec = func(n, parent *plan.Node) {
		if n == nil {
			return
		}
		dst = append(dst, Extract(n, parent, mode))
		for _, c := range n.Children {
			rec(c, n)
		}
	}
	rec(p.Root, nil)
	return dst
}
