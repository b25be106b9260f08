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
	if t == nil {
		t = NewScaleTable()
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
			g := opGroup{resource: r, op: op, samples: samples, lo: len(jobs)}
			if cfg.DisableScaling {
				// Plain-MART baseline: only the unscaled candidate.
				jobs = append(jobs, fitJob{op: op, resource: r, samples: samples})
			} else {
				for _, scales := range candidateScaleSets(op, r, t) {
					jobs = append(jobs, fitJob{op: op, resource: r, scales: scales, samples: samples})
				}
			}
			g.hi = len(jobs)
			groups = append(groups, g)
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
