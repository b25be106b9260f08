package serve

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/plan"
	"repro/internal/workload"
)

// assembleByMap is the assembly the indexed one replaced, kept as its
// reference: plan.Pipelines() for the decomposition, a map from node to
// prediction for the pipeline sums.
func (ms *modelSet) assembleByMap(p *plan.Plan, own []probe) PlanEstimate {
	pipes := p.Pipelines()
	primary := ms.kinds[0]
	pe := PlanEstimate{Operators: make([]OperatorEstimate, len(own))}
	var backing []float64
	if ms.multi() {
		backing = make([]float64, 0, (len(own)+len(pipes)+1)*len(ms.kinds))
	}
	perNode := make(map[*plan.Node]plan.Resources, len(own))
	var total plan.Resources
	for i := range own {
		n, v := own[i].node, own[i].val
		perNode[n] = v
		op := &pe.Operators[i]
		*op = OperatorEstimate{ID: n.ID, Kind: n.Kind.String(), Estimate: v.Get(primary)}
		backing, op.Estimates = ms.appendValues(backing, v)
		total.Add(v)
	}
	pe.Total = total.Get(primary)
	backing, pe.Totals = ms.appendValues(backing, total)
	for _, pl := range pipes {
		ppe := PipelineEstimate{ID: pl.ID, Operators: make([]int, 0, len(pl.Nodes))}
		var ptotal plan.Resources
		for _, n := range pl.Nodes {
			ptotal.Add(perNode[n])
			ppe.Operators = append(ppe.Operators, n.ID)
		}
		ppe.Estimate = ptotal.Get(primary)
		backing, ppe.Estimates = ms.appendValues(backing, ptotal)
		pe.Pipelines = append(pe.Pipelines, ppe)
	}
	return pe
}

// TestAssembleMatchesPipelines holds the indexed assembly to the
// map-based one on every TPC-H template and on a chain of 16 pipelines,
// for a single- and a multi-resource request: the same lists, and sums
// made of the same additions in the same order — the predictions are
// irrational enough that another order would round differently.
func TestAssembleMatchesPipelines(t *testing.T) {
	cfg := workload.DefaultConfig()
	cfg.N = 2 * len(workload.TPCHTemplates())
	cfg.Seed = 5
	var plans []*plan.Plan
	for _, q := range workload.GenTPCH(cfg) {
		plans = append(plans, q.Plan)
	}
	chain := plan.NewLeaf(plan.TableScan, "t")
	for i := 0; i < 15; i++ {
		chain = plan.NewUnary(plan.Sort, chain)
	}
	plans = append(plans, plan.New(plan.NewUnary(plan.Filter, chain), "chain"))

	maxPipes := 0
	for _, p := range plans {
		var own []probe
		p.Walk(func(n *plan.Node) {
			x := float64(len(own) + 1)
			own = append(own, probe{node: n, val: plan.Resources{CPU: math.Sqrt(x) * 1e3, IO: math.Exp(x / 7)}})
		})
		for _, kinds := range [][]plan.ResourceKind{{plan.CPUTime}, {plan.LogicalIO, plan.CPUTime}} {
			ms := &modelSet{kinds: kinds}
			got, want := ms.assemble(p, own), ms.assembleByMap(p, own)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, %d resources: indexed assembly\n%+v\nmap-based\n%+v", p.Tag, len(kinds), got, want)
			}
			maxPipes = max(maxPipes, len(got.Pipelines))
		}
	}
	if maxPipes != 16 {
		t.Fatalf("deepest decomposition has %d pipelines, want the chain's 16", maxPipes)
	}
}
