//go:build !unix

package main

import "time"

// Without getrusage and /proc the CPU-cost and RSS figures read 0; the
// benchmark's gated numbers are only meaningful on unix.
func processCPU() time.Duration { return 0 }

func peakRSSMB() float64 { return 0 }

func stolenCPU() time.Duration { return 0 }
