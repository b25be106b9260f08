package plan

// The two halves of DecodeJSON and of EncodeJSON, exposed so the
// external test package can run them against each other.
var (
	FastDecode = fastDecode
	DecodeStd  = decodeStd
	AppendPlan = appendPlan
	EncodeStd  = encodeStd
)
