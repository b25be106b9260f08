package svm

// NumSV returns the number of support vectors.
func (m *Model) NumSV() int { return len(m.sv) }
