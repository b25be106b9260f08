package sched

// Used returns the currently reserved capacity.
func (a *AdmissionController) Used() float64 { return a.used }

// Free returns the remaining capacity.
func (a *AdmissionController) Free() float64 { return a.capacity - a.used }

// Admitted returns the number of currently admitted queries.
func (a *AdmissionController) Admitted() int { return len(a.admitted) }
