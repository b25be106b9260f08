// Package sched implements the two applications the paper motivates
// resource estimation with (§1): admission control — deciding before
// execution whether a query fits the available resources — and
// pipeline-granularity scheduling, which exploits that pipelines of one
// query never execute concurrently (§5.2) and therefore never compete.
//
// The package is estimation-agnostic: it consumes predicted costs and
// can be evaluated afterwards against actual costs.
package sched

import (
	"errors"
	"fmt"
	"sort"
)

// AdmissionController tracks a resource budget and admits work whose
// predicted consumption fits the remaining capacity, with a safety
// factor applied to predictions (estimation is never exact; the paper's
// ratio-error buckets quantify by how much).
type AdmissionController struct {
	capacity float64
	safety   float64
	used     float64
	admitted map[string]float64
}

// NewAdmissionController returns a controller over the given capacity.
// safety >= 1 inflates predictions before the admission check (e.g. 1.5
// guards against all queries in the paper's R <= 1.5 bucket).
func NewAdmissionController(capacity, safety float64) (*AdmissionController, error) {
	if capacity <= 0 {
		return nil, errors.New("sched: non-positive capacity")
	}
	if safety < 1 {
		safety = 1
	}
	return &AdmissionController{
		capacity: capacity,
		safety:   safety,
		admitted: map[string]float64{},
	}, nil
}

// TryAdmit admits the query if safety·predicted fits the remaining
// capacity, reserving it until Release. IDs must be unique among
// currently admitted queries.
func (a *AdmissionController) TryAdmit(id string, predicted float64) (bool, error) {
	if _, dup := a.admitted[id]; dup {
		return false, fmt.Errorf("sched: %q already admitted", id)
	}
	if predicted < 0 {
		return false, fmt.Errorf("sched: negative prediction for %q", id)
	}
	need := predicted * a.safety
	if a.used+need > a.capacity {
		return false, nil
	}
	a.used += need
	a.admitted[id] = need
	return true, nil
}

// Release returns an admitted query's reservation to the pool.
func (a *AdmissionController) Release(id string) error {
	need, ok := a.admitted[id]
	if !ok {
		return fmt.Errorf("sched: %q not admitted", id)
	}
	a.used -= need
	delete(a.admitted, id)
	return nil
}

// Chain is one query's pipelines in execution order: pipeline i+1 may
// only start after pipeline i finishes (they are separated by blocking
// operators), while pipelines of different chains may run concurrently.
type Chain struct {
	ID    string
	Costs []float64 // predicted cost per pipeline, execution order
}

// Total returns the chain's total predicted cost.
func (c Chain) Total() float64 {
	var s float64
	for _, v := range c.Costs {
		s += v
	}
	return s
}

// Assignment records where and when one pipeline was scheduled.
type Assignment struct {
	Chain    string
	Pipeline int
	Worker   int
	Start    float64
	End      float64
}

// Schedule is the result of scheduling a set of chains.
type Schedule struct {
	Assignments []Assignment
	Makespan    float64
	WorkerLoad  []float64
}

// ScheduleChains performs precedence-respecting list scheduling of the
// chains onto `workers` identical workers: whenever a worker frees up,
// the ready pipeline (its predecessor finished) with the longest
// remaining chain work starts next. This is the classic LPT-style
// heuristic applied at pipeline granularity — the scheduling use case
// the paper's operator-level models enable.
func ScheduleChains(chains []Chain, workers int) (*Schedule, error) {
	if workers < 1 {
		return nil, errors.New("sched: need at least one worker")
	}
	for _, c := range chains {
		for _, v := range c.Costs {
			if v < 0 {
				return nil, fmt.Errorf("sched: chain %q has negative cost", c.ID)
			}
		}
	}
	type state struct {
		next    int     // next pipeline index to run
		readyAt float64 // when the previous pipeline finished
	}
	states := make([]state, len(chains))
	remaining := make([]float64, len(chains))
	for i, c := range chains {
		remaining[i] = c.Total()
	}
	workerFree := make([]float64, workers)
	var out Schedule
	out.WorkerLoad = make([]float64, workers)

	for {
		// Pick the earliest-free worker.
		w := 0
		for i := 1; i < workers; i++ {
			if workerFree[i] < workerFree[w] {
				w = i
			}
		}
		now := workerFree[w]
		// Candidate chains: next pipeline exists; among those ready by
		// `now`, pick the one with the most remaining work. If none is
		// ready yet, advance to the earliest readiness.
		best := -1
		earliest := -1.0
		for i := range chains {
			st := &states[i]
			if st.next >= len(chains[i].Costs) {
				continue
			}
			if st.readyAt <= now {
				if best < 0 || remaining[i] > remaining[best] {
					best = i
				}
			}
			if earliest < 0 || st.readyAt < earliest {
				earliest = st.readyAt
			}
		}
		if best < 0 {
			if earliest < 0 {
				break // all chains finished
			}
			// Idle the worker until the next pipeline becomes ready.
			workerFree[w] = earliest
			continue
		}
		c := &chains[best]
		st := &states[best]
		cost := c.Costs[st.next]
		start := now
		if st.readyAt > start {
			start = st.readyAt
		}
		end := start + cost
		out.Assignments = append(out.Assignments, Assignment{
			Chain: c.ID, Pipeline: st.next, Worker: w, Start: start, End: end,
		})
		workerFree[w] = end
		out.WorkerLoad[w] += cost
		remaining[best] -= cost
		st.next++
		st.readyAt = end
		if end > out.Makespan {
			out.Makespan = end
		}
	}
	return &out, nil
}

// EvaluateSchedule replays a schedule's assignment order with different
// (e.g. actual) costs, preserving worker assignment and intra-chain
// order, and returns the realized makespan — how the plan would have
// played out given the true resource consumption.
func EvaluateSchedule(s *Schedule, actual map[string][]float64) (float64, error) {
	// Group assignments per worker in start order, keep chain precedence.
	perWorker := map[int][]Assignment{}
	for _, a := range s.Assignments {
		perWorker[a.Worker] = append(perWorker[a.Worker], a)
	}
	for _, as := range perWorker {
		sort.Slice(as, func(i, j int) bool { return as[i].Start < as[j].Start })
	}
	chainDone := map[string]map[int]float64{} // chain -> pipeline -> end time
	workerTime := map[int]float64{}
	var makespan float64
	// Iterate rounds until all assignments placed (simple fixed-point:
	// a pipeline can run once its predecessor's realized end is known).
	pending := len(s.Assignments)
	idx := map[int]int{}
	for pending > 0 {
		progressed := false
		for w, as := range perWorker {
			for idx[w] < len(as) {
				a := as[idx[w]]
				costs, ok := actual[a.Chain]
				if !ok || a.Pipeline >= len(costs) {
					return 0, fmt.Errorf("sched: missing actual costs for %s/%d", a.Chain, a.Pipeline)
				}
				readyAt := 0.0
				if a.Pipeline > 0 {
					prevEnd, done := chainDone[a.Chain][a.Pipeline-1]
					if !done {
						break // predecessor not scheduled yet; try other workers
					}
					readyAt = prevEnd
				}
				start := workerTime[w]
				if readyAt > start {
					start = readyAt
				}
				end := start + costs[a.Pipeline]
				workerTime[w] = end
				if chainDone[a.Chain] == nil {
					chainDone[a.Chain] = map[int]float64{}
				}
				chainDone[a.Chain][a.Pipeline] = end
				if end > makespan {
					makespan = end
				}
				idx[w]++
				pending--
				progressed = true
			}
		}
		if !progressed {
			return 0, errors.New("sched: schedule replay deadlocked (cyclic precedence?)")
		}
	}
	return makespan, nil
}
