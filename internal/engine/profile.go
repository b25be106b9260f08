// Package engine simulates the execution of physical query plans,
// producing per-operator CPU time and logical I/O measurements. It
// substitutes for the Microsoft SQL Server instance the paper measured
// on: each operator follows an analytic cost law with
//
//   - nonlinear in-range structure (piecewise per-byte costs, cache and
//     spill steps) that simple linear models cannot fit but regression
//     trees can,
//   - the asymptotic behaviour the paper's scaling functions encode
//     (linear scans and filters, n·log n sorts, outer·log(inner) index
//     nested loops, ...), and
//   - multiplicative measurement noise.
//
// CPU is reported in milliseconds, I/O in logical page reads.
package engine

// Profile holds the hardware/engine calibration constants. All CPU
// coefficients are in milliseconds; sizes in bytes. The defaults are
// calibrated so that a scan of TPC-H lineitem at scale factor 1 takes a
// few seconds of CPU, in the ballpark of the paper's Figure 1 axis.
type Profile struct {
	// Per-tuple base CPU by operator family.
	ScanTupleCPU   float64 // row decode in a heap/clustered scan
	SeekTupleCPU   float64 // row fetch in an index seek range
	FilterTupleCPU float64 // predicate evaluation per input tuple
	SortCmpCPU     float64 // one comparison in a sort
	HashOpCPU      float64 // one hashing operation
	HashProbeCPU   float64 // hash table probe
	HashInsertCPU  float64 // hash table insert
	MergeCmpCPU    float64 // merge join comparison
	AggCPU         float64 // aggregate accumulation per tuple
	OutputTupleCPU float64 // materializing one output tuple
	ExprCPU        float64 // compute scalar expression per tuple
	SeekDescendCPU float64 // descending one B-tree level
	LoopIterCPU    float64 // nested loop per-outer-row overhead
	PageCPU        float64 // per-page overhead in scans

	// Per-byte CPU, piecewise in the row width: rows wider than
	// WideRowBytes pay WideByteCPU per byte beyond it (cache-line and
	// copy effects; the step is the in-range nonlinearity MART must fit).
	ByteCPU      float64
	WideByteCPU  float64
	WideRowBytes float64

	// Memory budget per blocking operator; exceeding it causes multi-pass
	// sorts / hash spills with step-function CPU and I/O penalties.
	WorkMemBytes    float64
	SpillPassCPU    float64 // fractional extra CPU per extra pass
	SortRunFanout   float64 // merge fanout between sort passes
	PageBytes       float64 // logical page size
	TuplesPerIOPage float64 // used to convert fetched rows into pages

	// Batch-sort optimization for index nested loops ([13, 11] in the
	// paper): with many outer rows, inner references localize and the
	// per-seek cost drops by BatchDiscount once OuterRows exceeds
	// BatchThreshold.
	BatchThreshold float64
	BatchDiscount  float64

	// NoiseCV is the coefficient of variation of the multiplicative
	// lognormal measurement noise applied per operator execution.
	NoiseCV float64

	// Seed drives the noise stream.
	Seed uint64
}

// DefaultProfile returns the calibration used by all experiments.
func DefaultProfile() *Profile {
	return &Profile{
		ScanTupleCPU:   0.00010,
		SeekTupleCPU:   0.00016,
		FilterTupleCPU: 0.00006,
		SortCmpCPU:     0.000045,
		HashOpCPU:      0.00005,
		HashProbeCPU:   0.00008,
		HashInsertCPU:  0.00013,
		MergeCmpCPU:    0.00007,
		AggCPU:         0.00005,
		OutputTupleCPU: 0.00004,
		ExprCPU:        0.00003,
		SeekDescendCPU: 0.0015,
		LoopIterCPU:    0.00025,
		PageCPU:        0.004,

		ByteCPU:      0.0000009,
		WideByteCPU:  0.0000022,
		WideRowBytes: 96,

		WorkMemBytes:    16 << 20,
		SpillPassCPU:    0.55,
		SortRunFanout:   128,
		PageBytes:       8192,
		TuplesPerIOPage: 55,

		BatchThreshold: 20000,
		BatchDiscount:  0.55,

		NoiseCV: 0.06,
		Seed:    0x5EED,
	}
}

// rowByteCPU returns the per-tuple CPU attributable to the tuple width w,
// with the piecewise wide-row penalty.
func (p *Profile) rowByteCPU(w float64) float64 {
	if w <= 0 {
		return 0
	}
	if w <= p.WideRowBytes {
		return w * p.ByteCPU
	}
	return p.WideRowBytes*p.ByteCPU + (w-p.WideRowBytes)*p.WideByteCPU
}
