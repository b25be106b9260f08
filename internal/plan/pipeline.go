package plan

// Pipeline is a maximal set of concurrently executing operators — the
// scheduling granularity the paper motivates operator-level modeling
// with (§5.2). Pipelines are separated by blocking operator inputs
// (sorts, hash builds, hash aggregation): the subtree feeding a blocking
// input finishes before the consumer starts producing.
type Pipeline struct {
	ID    int
	Nodes []*Node
}

// TotalActual sums the measured resource usage over the pipeline.
func (pl *Pipeline) TotalActual() Resources {
	var r Resources
	for _, n := range pl.Nodes {
		r.Add(n.Actual)
	}
	return r
}

// Pipelines decomposes the plan into pipelines. The algorithm assigns
// each node to the same pipeline as its parent unless the edge from the
// parent is a blocking input, in which case the child subtree starts a
// new pipeline. Pipelines are returned in execution order: a pipeline
// feeding a blocking input completes before the consumer's pipeline, so
// children-first ordering is a valid schedule.
func (p *Plan) Pipelines() []*Pipeline {
	ids, count := p.PipelineIDs(nil)
	if count == 0 {
		return nil
	}
	out := make([]*Pipeline, count)
	for i := range out {
		out[i] = &Pipeline{ID: i}
	}
	j := 0
	p.Walk(func(n *Node) {
		out[ids[j]].Nodes = append(out[ids[j]].Nodes, n)
		j++
	})
	return out
}

// PipelineIDs appends to dst the ID of each node's pipeline — the index
// into Pipelines() — in preorder, and returns it with the pipeline
// count: the decomposition itself, for callers that hold per-node
// values by preorder position and need no *Pipeline.
func (p *Plan) PipelineIDs(dst []int) (ids []int, count int) {
	if p.Root == nil {
		return dst, 0
	}
	ids, count = appendPipelines(dst, p.Root, 0, 1)
	// Pipelines were numbered as discovered, parents before the children
	// they block on; reversing that is leaves-to-root execution order.
	for j := len(dst); j < len(ids); j++ {
		ids[j] = count - 1 - ids[j]
	}
	return ids, count
}

// appendPipelines appends the discovery-order pipeline of every node of
// n's subtree, n being in pipeline cur with count pipelines known.
func appendPipelines(ids []int, n *Node, cur, count int) ([]int, int) {
	ids = append(ids, cur)
	for i, c := range n.Children {
		at := cur
		// The edge is a materialization boundary when the child is a full
		// blocking operator (Sort, HashAggregate: it consumes its whole
		// input before the parent sees a row, so it executes with its
		// input pipeline) or feeds the parent's blocking input (a hash
		// join's build side, drained before probing starts).
		if c.Kind == Sort || c.Kind == HashAggregate || (n.Kind == HashJoin && i == 0) {
			at, count = count, count+1
		}
		ids, count = appendPipelines(ids, c, at, count)
	}
	return ids, count
}
