package plan

// The two halves of DecodeJSON, exposed so the external test package
// can run them against each other.
var (
	FastDecode = fastDecode
	DecodeStd  = decodeStd
)
