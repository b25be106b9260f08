package plan

// The two halves of DecodeJSON and of EncodeJSON, exposed so the
// external test package can run them against each other.
var (
	FastDecode = fastDecode
	DecodeStd  = decodeStd
	AppendPlan = appendPlan
	EncodeStd  = encodeStd
)

// BlockingInputs returns the child indexes whose input must be fully
// consumed before the operator produces output — the pipeline breakers
// used for pipeline decomposition (§5.2 of the paper: sorts, hash builds
// and hash aggregation end a pipeline).
func (k OpKind) BlockingInputs() []int {
	switch k {
	case Sort, HashAggregate:
		return []int{0}
	case HashJoin:
		return []int{0} // child 0 is the build side by convention
	}
	return nil
}
