package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"

	"repro/internal/plan"
	"repro/internal/store"
)

// RouteVersion identifies the model serving one (schema, resource)
// route. Version is the process-local registry version (not
// comparable across processes); Snapshot and SHA256 come from the
// attached model store and *are* globally comparable — two replicas
// serving the same store snapshot report the same values, which is
// what lets a router (or an operator) verify "same model everywhere"
// without downloading the models.
type RouteVersion struct {
	Schema   string `json:"schema"`
	Resource string `json:"resource"`
	Version  uint64 `json:"version"`
	Snapshot uint64 `json:"snapshot,omitempty"`
	// SHA256 is the serving model file's content checksum from the
	// snapshot manifest ("" without a store).
	SHA256 string `json:"sha256,omitempty"`
}

// VersionVector reports every live route's model identity, sorted by
// (schema, resource) for deterministic output. /healthz publishes it.
func (r *Registry) VersionVector() []RouteVersion {
	r.mu.RLock()
	out := make([]RouteVersion, 0, len(r.slots))
	keys := make([]ModelKey, 0, len(r.slots))
	for key, slot := range r.slots {
		if m := slot.Load(); m != nil {
			out = append(out, RouteVersion{
				Schema:   key.Schema,
				Resource: key.Resource.WireName(),
				Version:  m.Info.Version,
			})
			keys = append(keys, key)
		}
	}
	r.mu.RUnlock()

	r.storeMu.Lock()
	if r.store != nil {
		for i, key := range keys {
			snap := r.cursor[key]
			if snap == 0 {
				continue
			}
			out[i].Snapshot = snap
			if man := r.manifestLocked(snap); man != nil {
				if e, ok := man.Resource(out[i].Resource); ok {
					out[i].SHA256 = e.SHA256
				}
			}
		}
	}
	r.storeMu.Unlock()

	sort.Slice(out, func(i, j int) bool {
		if out[i].Schema != out[j].Schema {
			return out[i].Schema < out[j].Schema
		}
		return out[i].Resource < out[j].Resource
	})
	return out
}

// manifestLocked returns the (immutable) manifest for snapshot v,
// memoized so /healthz polling does not re-read manifest files on
// every probe. Caller holds storeMu.
func (r *Registry) manifestLocked(v uint64) *store.Manifest {
	if man, ok := r.manCache[v]; ok {
		return man
	}
	man, err := r.store.Manifest(v)
	if err != nil {
		return nil
	}
	if r.manCache == nil {
		r.manCache = make(map[uint64]*store.Manifest)
	}
	// Bound the memo: snapshots are pruned by GC, and a long-lived
	// process must not accumulate one entry per snapshot it ever served.
	if len(r.manCache) >= 64 {
		r.manCache = make(map[uint64]*store.Manifest)
	}
	r.manCache[v] = man
	return man
}

// VersionChecksum folds a version vector into one comparable hex
// digest. Routes backed by a store snapshot contribute their model
// file's content checksum, so the digest is equal across replicas
// serving the same models from a shared store; routes without a store
// contribute the process-local version, making the digest meaningful
// only within one process (documented in the README's version-skew
// section).
func VersionChecksum(vec []RouteVersion) string {
	h := sha256.New()
	for _, rv := range vec {
		if rv.SHA256 != "" {
			fmt.Fprintf(h, "%s/%s:%s\n", rv.Schema, rv.Resource, rv.SHA256)
		} else {
			fmt.Fprintf(h, "%s/%s:local-v%d\n", rv.Schema, rv.Resource, rv.Version)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// SyncFromStore publishes any store snapshot newer than the one each
// route is serving — the follower half of fleet convergence. A
// replica that is not the designated retrainer polls this; when the
// retrainer publishes a retrained snapshot through the shared store,
// the follower picks it up here and its version-keyed prediction
// cache self-invalidates on the publish.
//
// Unlike RestoreFromStore this never writes to the store — no
// serving-cursor records — so any number of read-only followers can
// share one store directory with a single writing publisher.
func (r *Registry) SyncFromStore() ([]ModelInfo, error) {
	st := r.Store()
	if st == nil {
		return nil, errors.New("serve: no store attached")
	}
	schemas, err := st.Schemas()
	if err != nil {
		return nil, err
	}
	var out []ModelInfo
	for _, schema := range schemas {
		loaded, err := st.LoadLatest(schema)
		if err != nil {
			r.logStore("store: sync %q: %v", schema, err)
			continue
		}
		for _, k := range plan.ResourceKinds() {
			est, ok := loaded.Models[k]
			if !ok {
				continue
			}
			r.storeMu.Lock()
			cur := r.cursor[ModelKey{Schema: schema, Resource: k}]
			r.storeMu.Unlock()
			if loaded.Manifest.Version <= cur {
				continue
			}
			if info, _, installed := r.publish(schema, est, true, "sync", loaded.Manifest.Version); installed {
				out = append(out, info)
			}
		}
	}
	return out, nil
}
