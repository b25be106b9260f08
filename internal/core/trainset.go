package core

import (
	"errors"
	"fmt"

	"repro/internal/plan"
)

// TrainSet trains one estimator per requested resource from the same
// executed plans in a single parallel pass: every (resource × operator
// × candidate scale-set) fit is an independent job flattened onto one
// bounded worker pool (Config.Workers; 0 = GOMAXPROCS). The paper
// trains its CPU and I/O models independently; serving stacks want both
// — this is the bootstrap/retrain path that saturates the machine
// instead of sweeping the combinations one core at a time.
//
// The scale table supplies each scaled candidate's §6.2 form. A nil
// table means the paper's selection: the sweep experiments run once per
// process on the default engine (see selectedScales), and only when
// scaling is on.
//
// Each returned estimator is bit-identical to what a sequential
// per-resource Train would produce: parallelism moves wall-clock, never
// models. Baselines are not stamped — callers decide the baseline
// policy (see cmd/resserve's bootstrap probe, repro.Train's in-sample
// baseline and feedback's retrainer).
func TrainSet(plans []*plan.Plan, resources []plan.ResourceKind, t *ScaleTable, cfg Config) (map[plan.ResourceKind]*Estimator, error) {
	if len(plans) == 0 {
		return nil, errors.New("core: no training plans")
	}
	if len(resources) == 0 {
		return nil, errors.New("core: no resources to train")
	}
	if t == nil && !cfg.DisableScaling {
		t = selectedScales()
	}
	// opGroup records which slice of the flattened job list holds one
	// operator's candidates, so assembly needs no bookkeeping beyond
	// slot ranges.
	type opGroup struct {
		resource plan.ResourceKind
		op       plan.OpKind
		samples  []Sample
		lo, hi   int
	}
	var jobs []fitJob
	var groups []opGroup
	ests := make(map[plan.ResourceKind]*Estimator, len(resources))
	for _, r := range resources {
		if !r.Valid() {
			return nil, fmt.Errorf("core: unknown resource kind %d", r)
		}
		if _, dup := ests[r]; dup {
			return nil, fmt.Errorf("core: duplicate resource %s in training set", r)
		}
		ests[r] = &Estimator{Resource: r, Mode: cfg.Mode, Ops: make(map[plan.OpKind]*OperatorModels)}
		byOp := CollectSamples(plans, r, cfg.Mode)
		// Operators are enumerated in declaration order, not map order,
		// so the job layout — and the fallback mean's float accumulation
		// during assembly — is deterministic run to run.
		for _, op := range plan.Kinds() {
			samples, ok := byOp[op]
			if !ok {
				continue
			}
			lo := len(jobs)
			jobs = appendOperatorJobs(jobs, op, r, samples, t, cfg)
			groups = append(groups, opGroup{resource: r, op: op, samples: samples, lo: lo, hi: len(jobs)})
		}
	}
	models, err := runFitJobs(jobs, cfg)
	if err != nil {
		return nil, err
	}
	type meanAcc struct {
		sum float64
		n   int
	}
	accs := make(map[plan.ResourceKind]*meanAcc, len(resources))
	for _, r := range resources {
		accs[r] = &meanAcc{}
	}
	for _, g := range groups {
		ests[g.resource].Ops[g.op] = assembleOperator(g.op, g.resource, len(g.samples), models[g.lo:g.hi])
		a := accs[g.resource]
		for _, s := range g.samples {
			a.sum += s.Y
			a.n++
		}
	}
	for _, r := range resources {
		if a := accs[r]; a.n > 0 {
			ests[r].fallbackMean = a.sum / float64(a.n)
		}
	}
	return ests, nil
}

// appendOperatorJobs appends one operator's candidate fits to jobs:
// every candidate scale set of t, or under DisableScaling only the
// unscaled candidate, the plain-MART baseline.
func appendOperatorJobs(jobs []fitJob, op plan.OpKind, r plan.ResourceKind, samples []Sample, t *ScaleTable, cfg Config) []fitJob {
	if cfg.DisableScaling {
		return append(jobs, fitJob{op: op, resource: r, samples: samples})
	}
	for _, scales := range candidateScaleSets(op, r, t) {
		jobs = append(jobs, fitJob{op: op, resource: r, scales: scales, samples: samples})
	}
	return jobs
}
