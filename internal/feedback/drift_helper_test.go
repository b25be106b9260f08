package feedback

import "repro/internal/core"

// drifting is the detector's verdict alone, as the tests ask for it.
func (l *Loop) drifting(st *routeState, est *core.Estimator) bool {
	d, _ := l.drift(st, est)
	return d
}
