package plan

import (
	"math"
	"strings"
	"testing"
)

// buildTestPlan returns a plan shaped like
//
//	HashJoin
//	  Sort                (build side: blocking)
//	    TableScan(orders)
//	  Filter
//	    TableScan(lineitem)
func buildTestPlan() *Plan {
	ordersScan := NewLeaf(TableScan, "orders")
	ordersScan.TableRows, ordersScan.TablePages, ordersScan.TableCols = 1500, 100, 9
	ordersScan.Out = Cardinality{Rows: 1500, Width: 120}
	sort := NewUnary(Sort, ordersScan)
	sort.Out = Cardinality{Rows: 1500, Width: 120}
	liScan := NewLeaf(TableScan, "lineitem")
	liScan.TableRows, liScan.TablePages, liScan.TableCols = 6000, 400, 16
	liScan.Out = Cardinality{Rows: 6000, Width: 138}
	filter := NewUnary(Filter, liScan)
	filter.Out = Cardinality{Rows: 600, Width: 138}
	join := NewJoin(HashJoin, sort, filter)
	join.Out = Cardinality{Rows: 600, Width: 200}
	return New(join, "test")
}

func TestNewAssignsPreorderIDs(t *testing.T) {
	p := buildTestPlan()
	nodes := p.Nodes()
	for i, n := range nodes {
		if n.ID != i {
			t.Fatalf("node %d has ID %d", i, n.ID)
		}
	}
	if p.NumNodes() != 5 {
		t.Fatalf("NumNodes = %d, want 5", p.NumNodes())
	}
	if nodes[0].Kind != HashJoin {
		t.Fatalf("preorder root = %s", nodes[0].Kind)
	}
}

func TestValidateAcceptsGoodPlan(t *testing.T) {
	if err := buildTestPlan().Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateRejectsBadPlans(t *testing.T) {
	// Leaf without table stats.
	bad := NewLeaf(TableScan, "t")
	if err := New(bad, "").Validate(); err == nil {
		t.Fatal("leaf without stats passed validation")
	}
	// Wrong child count.
	n := &Node{Kind: Filter}
	if err := New(n, "").Validate(); err == nil {
		t.Fatal("filter without child passed validation")
	}
	// Nested loop inner that is not a seek.
	outer := NewLeaf(TableScan, "a")
	outer.TableRows, outer.TablePages = 10, 1
	inner := NewLeaf(TableScan, "b")
	inner.TableRows, inner.TablePages = 10, 1
	nl := NewJoin(NestedLoopJoin, outer, inner)
	if err := New(nl, "").Validate(); err == nil {
		t.Fatal("nested loop with scan inner passed validation")
	}
}

// TestValidateRejectsNaN: a NaN compares false with everything, so it
// passes a "< 0" check; it must not reach the features, where it would
// key a prediction-cache entry nothing can find again.
func TestValidateRejectsNaN(t *testing.T) {
	for name, set := range map[string]func(*Node){
		"out rows":    func(n *Node) { n.Out.Rows = math.NaN() },
		"out width":   func(n *Node) { n.Out.Width = math.NaN() },
		"table rows":  func(n *Node) { n.TableRows = math.NaN() },
		"table pages": func(n *Node) { n.TablePages = math.NaN() },
	} {
		p := buildTestPlan()
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		for _, n := range p.Nodes() {
			if n.Kind.IsLeaf() {
				set(n)
				break
			}
		}
		if err := p.Validate(); err == nil {
			t.Errorf("NaN %s passed validation", name)
		}
	}
}

func TestConstructorsPanicOnMisuse(t *testing.T) {
	cases := []func(){
		func() { NewLeaf(Filter, "t") },
		func() { NewUnary(HashJoin, nil) },
		func() { NewJoin(Sort, nil, nil) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestKindProperties(t *testing.T) {
	if !TableScan.IsLeaf() || Filter.IsLeaf() {
		t.Fatal("IsLeaf wrong")
	}
	if !HashJoin.IsJoin() || Sort.IsJoin() {
		t.Fatal("IsJoin wrong")
	}
	for _, k := range Kinds() {
		switch k.NumChildren() {
		case 0:
			if !k.IsLeaf() {
				t.Fatalf("%s: 0 children but not leaf", k)
			}
		case 2:
			if !k.IsJoin() {
				t.Fatalf("%s: 2 children but not join", k)
			}
		}
		if k.String() == "" || strings.HasPrefix(k.String(), "OpKind(") {
			t.Fatalf("kind %d has no name", int(k))
		}
	}
}

func TestBlockingInputs(t *testing.T) {
	if got := Sort.BlockingInputs(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("Sort blocking = %v", got)
	}
	if got := HashJoin.BlockingInputs(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("HashJoin blocking = %v (build side must block)", got)
	}
	if got := MergeJoin.BlockingInputs(); len(got) != 0 {
		t.Fatalf("MergeJoin blocking = %v", got)
	}
	if got := Filter.BlockingInputs(); len(got) != 0 {
		t.Fatalf("Filter blocking = %v", got)
	}
}

func TestTotalActual(t *testing.T) {
	p := buildTestPlan()
	i := 0
	p.Walk(func(n *Node) {
		n.Actual = Resources{CPU: 1, IO: 2}
		i++
	})
	tot := p.TotalActual()
	if tot.CPU != 5 || tot.IO != 10 {
		t.Fatalf("TotalActual = %+v", tot)
	}
}

func TestPipelinesSplitAtBlockingEdges(t *testing.T) {
	p := buildTestPlan()
	pipes := p.Pipelines()
	// Expected: pipeline {Sort's input: orders scan} feeds Sort...
	// Actually the Sort node itself consumes in one pipeline and produces
	// in its parent's. Our model: the subtree under a blocking edge forms
	// its own pipeline, so:
	//   P0 (runs first): Sort, TableScan(orders)   [build input of join]
	//   P1: HashJoin, Filter, TableScan(lineitem)
	if len(pipes) != 2 {
		t.Fatalf("pipelines = %d, want 2\n%s", len(pipes), p)
	}
	kinds := func(pl *Pipeline) map[OpKind]int {
		m := map[OpKind]int{}
		for _, n := range pl.Nodes {
			m[n.Kind]++
		}
		return m
	}
	first := kinds(pipes[0])
	if first[Sort] != 1 || first[TableScan] != 1 {
		t.Fatalf("first pipeline = %v", first)
	}
	second := kinds(pipes[1])
	if second[HashJoin] != 1 || second[Filter] != 1 || second[TableScan] != 1 {
		t.Fatalf("second pipeline = %v", second)
	}
	// IDs in execution order.
	for i, pl := range pipes {
		if pl.ID != i {
			t.Fatalf("pipeline %d has ID %d", i, pl.ID)
		}
	}
}

func TestPipelinesCoverAllNodesOnce(t *testing.T) {
	p := buildTestPlan()
	seen := map[*Node]int{}
	for _, pl := range p.Pipelines() {
		for _, n := range pl.Nodes {
			seen[n]++
		}
	}
	if len(seen) != p.NumNodes() {
		t.Fatalf("pipelines cover %d nodes, plan has %d", len(seen), p.NumNodes())
	}
	for n, c := range seen {
		if c != 1 {
			t.Fatalf("node %s appears in %d pipelines", n.Kind, c)
		}
	}
}

func TestPipelineTotalActual(t *testing.T) {
	p := buildTestPlan()
	p.Walk(func(n *Node) { n.Actual = Resources{CPU: 2, IO: 1} })
	pipes := p.Pipelines()
	var cpu float64
	for _, pl := range pipes {
		cpu += pl.TotalActual().CPU
	}
	if cpu != p.TotalActual().CPU {
		t.Fatalf("pipeline CPU sum %v != plan total %v", cpu, p.TotalActual().CPU)
	}
}

func TestStringRendering(t *testing.T) {
	s := buildTestPlan().String()
	for _, want := range []string{"HashJoin", "TableScan(orders)", "TableScan(lineitem)", "Filter", "Sort"} {
		if !strings.Contains(s, want) {
			t.Fatalf("plan string missing %q:\n%s", want, s)
		}
	}
	// Indentation: children deeper than root.
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if strings.HasPrefix(lines[0], " ") {
		t.Fatal("root should not be indented")
	}
	if !strings.HasPrefix(lines[1], "  ") {
		t.Fatal("child should be indented")
	}
}

func TestCardinalityBytes(t *testing.T) {
	c := Cardinality{Rows: 10, Width: 8}
	if c.Bytes() != 80 {
		t.Fatalf("Bytes = %v", c.Bytes())
	}
}

func TestDeepPipelineDecomposition(t *testing.T) {
	// Sort over HashAggregate over scan: three pipelines stacked.
	scan := NewLeaf(TableScan, "t")
	scan.TableRows, scan.TablePages = 1000, 10
	agg := NewUnary(HashAggregate, scan)
	srt := NewUnary(Sort, agg)
	top := NewUnary(Top, srt)
	p := New(top, "")
	pipes := p.Pipelines()
	if len(pipes) != 3 {
		t.Fatalf("pipelines = %d, want 3", len(pipes))
	}
	// Execution order: scan pipeline first, then agg, then sort+top.
	if pipes[0].Nodes[0].Kind != HashAggregate && pipes[0].Nodes[0].Kind != TableScan {
		t.Fatalf("first pipeline starts with %s", pipes[0].Nodes[0].Kind)
	}
	last := pipes[len(pipes)-1]
	foundTop := false
	for _, n := range last.Nodes {
		if n.Kind == Top {
			foundTop = true
		}
	}
	if !foundTop {
		t.Fatal("final pipeline should contain the root Top")
	}
}
