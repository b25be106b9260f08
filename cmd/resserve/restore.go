package main

import (
	"slices"

	"repro/internal/plan"
	"repro/internal/serve"
)

// unrestored returns the resources of schema that did not come back
// from the model store at startup, in resource order — the set a
// startup bootstrap must still train; empty means the store covers the
// schema. A one-resource snapshot (repro.SaveSnapshot of one model)
// restores only that resource: skipping bootstrap for the whole schema
// would wedge the missing resource on the zero model, while a full
// re-bootstrap would silently revert whatever retrained or uploaded
// models the restored resources carry. So the decision is made per
// resource: bootstrap only what is absent.
func unrestored(restored []serve.ModelInfo, schema string) []plan.ResourceKind {
	var out []plan.ResourceKind
	for _, r := range plan.ResourceKinds() {
		if !slices.ContainsFunc(restored, func(info serve.ModelInfo) bool {
			return info.Schema == schema && info.Resource == r.String()
		}) {
			out = append(out, r)
		}
	}
	return out
}
