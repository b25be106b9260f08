package features

import (
	"testing"

	"repro/internal/plan"
)

// extractPlanRef is the reference both extraction paths are held to:
// a parent map built over the whole plan, then Extract on each node of
// p.Nodes() with the parent the map records.
func extractPlanRef(p *plan.Plan, mode Mode) []Vector {
	nodes := p.Nodes()
	parents := make(map[*plan.Node]*plan.Node, len(nodes))
	p.Walk(func(n *plan.Node) {
		for _, c := range n.Children {
			parents[c] = n
		}
	})
	out := make([]Vector, len(nodes))
	for i, n := range nodes {
		out[i] = Extract(n, parents[n], mode)
	}
	return out
}

// TestExtractPlansMatchesExtractPlan proves the batched walk and the
// per-plan path both yield exactly the reference's vectors, with
// offsets partitioning the flat slice in plan order.
func TestExtractPlansMatchesExtractPlan(t *testing.T) {
	qs := sampleQueries(t, 32)
	plans := make([]*plan.Plan, len(qs))
	for i, q := range qs {
		plans[i] = q.Plan
	}
	for _, mode := range []Mode{Exact, Estimated} {
		vecs, offs := ExtractPlans(plans, mode)
		if len(offs) != len(plans)+1 || offs[0] != 0 || offs[len(plans)] != len(vecs) {
			t.Fatalf("mode %d: bad offsets %v for %d vectors", mode, offs, len(vecs))
		}
		for i, p := range plans {
			want := extractPlanRef(p, mode)
			for path, got := range map[string][]Vector{
				"batch":    vecs[offs[i]:offs[i+1]],
				"per-plan": ExtractPlan(p, mode),
			} {
				if len(got) != len(want) {
					t.Fatalf("plan %d: %s path gave %d vectors, want %d", i, path, len(got), len(want))
				}
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("plan %d node %d: %s vector differs\n%v\nvs\n%v", i, j, path, got[j], want[j])
					}
				}
			}
		}
	}
}

// TestExtractPlansEmpty covers the zero-plan batch.
func TestExtractPlansEmpty(t *testing.T) {
	vecs, offs := ExtractPlans(nil, Exact)
	if len(vecs) != 0 || len(offs) != 1 || offs[0] != 0 {
		t.Fatalf("empty batch: vecs=%v offs=%v", vecs, offs)
	}
}
