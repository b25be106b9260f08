// Quickstart: generate a workload, execute it on the simulator, train a
// CPU estimator, and estimate a held-out query — the minimal end-to-end
// use of the public API.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro"
)

func main() {
	// 1. Generate a TPC-H-like workload over skewed data (Zipf z=2)
	//    across several database scale factors.
	queries, err := repro.GenerateWorkload(repro.WorkloadOptions{
		Schema:       "tpch",
		N:            256,
		ScaleFactors: []float64{1, 2, 4, 6},
		Seed:         42,
	})
	if err != nil {
		log.Fatal(err)
	}

	// 2. Execute on the engine simulator: this measures per-operator CPU
	//    time and logical I/O, the training labels.
	repro.Execute(queries)

	// 3. Hold out the last 32 queries, train on the rest.
	train, test := queries[:224], queries[224:]
	estimator, err := repro.Train(train, repro.TrainOptions{
		Resource:           repro.CPUTime,
		BoostingIterations: 300,
	})
	if err != nil {
		log.Fatal(err)
	}

	// 4. Estimate the held-out queries before "running" them.
	fmt.Printf("%-30s %12s %12s\n", "query", "estimated", "actual")
	var within2x int
	for _, q := range test {
		pred := estimator.EstimateQuery(q)
		actual := q.Plan.TotalActual().CPU
		fmt.Printf("%-30s %10.0fms %10.0fms\n", q.Plan.Tag, pred, actual)
		if r := pred / actual; r > 0.5 && r < 2 {
			within2x++
		}
	}
	fmt.Printf("\n%d/%d estimates within 2x of the actual CPU time\n", within2x, len(test))

	// 5. Persist the model set (a few hundred KB; §7.3 of the paper).
	reloaded, err := saveAndReload(estimator)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("model saved and reloaded; sample estimate: %.0fms\n",
		reloaded.EstimateQuery(test[0]))
}

// saveAndReload writes the estimator to a file in a fresh temporary
// directory, reads it back, and removes the directory.
func saveAndReload(est *repro.Estimator) (*repro.Estimator, error) {
	dir, err := os.MkdirTemp("", "quickstart")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "cpu-model.json")
	if err := est.SaveFile(path); err != nil {
		return nil, err
	}
	return repro.LoadFile(path)
}
