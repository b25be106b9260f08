package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"maps"
	"slices"
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
	// snapshot manifest ("" for a model in no snapshot).
	SHA256 string `json:"sha256,omitempty"`
}

// VersionVector reports every live route's model identity, sorted by
// (schema, resource) for deterministic output. /healthz publishes it.
// Snapshot and SHA256 are those of the snapshot the serving model
// lives in, and empty for a model in none.
func (r *Registry) VersionVector() []RouteVersion {
	r.mu.RLock()
	out := make([]RouteVersion, 0, len(r.slots))
	for key, slot := range r.slots {
		if m := slot.Load(); m != nil {
			id := r.storeIDOf(m)
			out = append(out, RouteVersion{
				Schema:   key.Schema,
				Resource: key.Resource.WireName(),
				Version:  m.Info.Version,
				Snapshot: id.snapshot,
				SHA256:   id.sha256,
			})
		}
	}
	r.mu.RUnlock()

	sort.Slice(out, func(i, j int) bool {
		if out[i].Schema != out[j].Schema {
			return out[i].Schema < out[j].Schema
		}
		return out[i].Resource < out[j].Resource
	})
	return out
}

// VersionChecksum folds a version vector into one comparable hex
// digest. Routes whose model lives in a store snapshot contribute their
// model file's content checksum, so the digest is equal across
// replicas serving the same models from a shared store; any other
// route contributes the process-local version, so the digest moves on
// every install and is meaningful only within one process (documented
// in the README's version-skew section).
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

// RestoreFromStore republishes the model set every schema in the
// attached store was last *serving* — crash recovery. Each route's
// snapshot comes from the durable serving-cursor record (so a route
// rolled back before the restart resumes on its rolled-back model, not
// the newest snapshot); routes without a record, or whose recorded
// snapshot does not load, fall back to the newest snapshot that loads,
// and corrupt snapshots are skipped (logged). Restored publishes write
// no snapshot; each schema's record is rewritten to name what serves.
func (r *Registry) RestoreFromStore() ([]ModelInfo, error) {
	return r.installFromStore("restore", true)
}

// SyncFromStore publishes any store snapshot newer than the one each
// route's model lives in — the follower half of fleet convergence; a
// route whose model is in no snapshot takes the newest. A
// replica that is not the designated retrainer polls this; when the
// retrainer publishes a retrained snapshot through the shared store,
// the follower picks it up here and its version-keyed prediction
// cache self-invalidates on the publish.
//
// Unlike RestoreFromStore this never writes to the store — no
// serving-cursor records — so any number of read-only followers can
// share one store directory with a single writing publisher. An idle
// poll reads the manifests and loads nothing.
func (r *Registry) SyncFromStore() ([]ModelInfo, error) {
	return r.installFromStore("sync", false)
}

// installFromStore is restore's and sync's one walk over the store. It
// lists the manifests once and, per schema and resource, installs the
// snapshot pick chooses among those newer than the one the route's
// serving model lives in (any snapshot is, for a model in none):
// newest first, and with recorded, the snapshot the serving record
// names before the rest; the record is rewritten afterwards.
func (r *Registry) installFromStore(source string, recorded bool) ([]ModelInfo, error) {
	st := r.Store()
	if st == nil {
		return nil, errors.New("serve: no store attached")
	}
	bySchema, err := r.listing(st)
	if err != nil {
		return nil, err
	}
	loaded := make(map[uint64]*store.Loaded)
	var out []ModelInfo
	for _, schema := range slices.Sorted(maps.Keys(bySchema)) {
		var rec map[string]uint64
		if recorded {
			rec = st.Current(schema)
		}
		for _, k := range plan.ResourceKinds() {
			mans := bySchema[schema]
			if i := slices.IndexFunc(mans, func(m *store.Manifest) bool { return m.Version == rec[k.WireName()] }); i >= 0 {
				mans = append([]*store.Manifest{mans[i]}, mans...)
			}
			cur := r.storeIDOf(r.serving(ModelKey{Schema: schema, Resource: k})).snapshot
			l := r.pick(st, source, mans, k, loaded, func(m *store.Manifest) bool { return m.Version > cur })
			if l == nil {
				continue
			}
			if info, _, installed := r.publish(schema, l.Models[k], true, source, idIn(l.Manifest, k)); installed {
				out = append(out, info)
			}
		}
		if recorded {
			r.saveCurrent(st, schema)
		}
	}
	return out, nil
}

// listing lists st's manifests by schema, each newest first, and
// forgets the load failures of snapshots no longer listed.
func (r *Registry) listing(st *store.Store) (map[string][]*store.Manifest, error) {
	mans, err := st.List()
	if err != nil {
		return nil, err
	}
	bySchema := make(map[string][]*store.Manifest)
	for _, man := range slices.Backward(mans) {
		bySchema[man.Schema] = append(bySchema[man.Schema], man)
	}
	r.storeMu.Lock()
	maps.DeleteFunc(r.failed, func(v uint64, _ bool) bool {
		return !slices.ContainsFunc(mans, func(m *store.Manifest) bool { return m.Version == v })
	})
	r.storeMu.Unlock()
	return bySchema, nil
}

// pick is the one choice of which snapshot a route loads, for restore,
// sync and rollback alike: the first of mans, tried in order, that
// carries resource k, is accepted and loads. Each snapshot loads at
// most once per walk (loaded holds the walk's loads). One that fails is
// logged under source, remembered in r.failed and skipped by later
// walks for as long as it is listed: a listed snapshot never changes.
func (r *Registry) pick(st *store.Store, source string, mans []*store.Manifest, k plan.ResourceKind,
	loaded map[uint64]*store.Loaded, accept func(*store.Manifest) bool) *store.Loaded {
	for _, man := range mans {
		if _, ok := man.Resource(k.WireName()); !ok || !accept(man) {
			continue
		}
		if l := loaded[man.Version]; l != nil {
			return l
		}
		r.storeMu.Lock()
		failed := r.failed[man.Version]
		r.storeMu.Unlock()
		if failed {
			continue
		}
		l, err := st.LoadVersion(man.Version)
		if err != nil {
			r.logStore("store: %s %q: %v", source, man.Schema, err)
			r.storeMu.Lock()
			r.failed[man.Version] = true
			r.storeMu.Unlock()
			continue
		}
		loaded[man.Version] = l
		return l
	}
	return nil
}
