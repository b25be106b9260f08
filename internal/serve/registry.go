// Package serve is the concurrent resource-estimation service: a model
// registry with atomic hot-swap, a sharded SIEVE prediction cache, and a
// request path that computes on the caller's goroutine, at most
// Options.Workers requests at once, exposed over HTTP by cmd/resserve —
// with, in front of its two byte-in, byte-out entry points (POST
// /estimate and the stream listener's estimate frame), one response
// cache per service that answers a repeated body before it is parsed
// (Service.Replay, Service.FileReplay).
//
// It operationalizes the paper's stated use cases — admission control,
// scheduling and costing inside a live DBMS — on top of the offline
// training pipeline: estimators trained by core.Train (or loaded via
// core.LoadEstimator) are published into a Registry and served to
// concurrent clients at query, pipeline and operator granularity.
package serve

import (
	"errors"
	"fmt"
	"os"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/store"
)

// ErrNoHistory means a rollback was requested for a slot with no prior
// published version to return to.
var ErrNoHistory = errors.New("serve: no prior model version to roll back to")

// ErrRollbackConflict means a concurrent publish superseded the
// rollback before it could install; the history entry is restored and
// the caller may retry.
var ErrRollbackConflict = errors.New("serve: rollback superseded by a concurrent publish")

// historyCap bounds the per-slot stack of superseded versions kept for
// rollback.
const historyCap = 8

// ModelKey routes requests to a model: the workload schema the model was
// trained on plus the resource it predicts.
type ModelKey struct {
	Schema   string
	Resource plan.ResourceKind
}

// ModelInfo describes a published model version, including its lineage:
// where the version came from (Source), which version it replaced
// (Parent) and how much training data produced it (TrainSamples).
type ModelInfo struct {
	Schema    string    `json:"schema"`
	Resource  string    `json:"resource"`
	Mode      string    `json:"mode"`
	Version   uint64    `json:"version"`
	NumModels int       `json:"num_models"`
	LoadedAt  time.Time `json:"loaded_at"`
	// Snapshot is the model-store snapshot the model was read from or
	// last persisted to (0 when it is in no snapshot: no store is
	// attached, its snapshot write failed, or it was published before
	// the store was attached).
	Snapshot uint64 `json:"snapshot,omitempty"`
	// Source is the producer that published this version: "bootstrap",
	// "upload" (POST /models), "retrain" (the feedback loop), "api"
	// (in-process Publish), "rollback" or "restore".
	Source string `json:"source,omitempty"`
	// Parent is the registry version this publish replaced in its slot
	// (0 for the first model on a route).
	Parent uint64 `json:"parent,omitempty"`
	// TrainSamples is the number of per-operator training samples behind
	// the estimator (0 when unknown).
	TrainSamples int `json:"train_samples,omitempty"`
}

// Model pairs an immutable estimator with its registry metadata.
type Model struct {
	Info ModelInfo
	Est  *core.Estimator
	// one is what a single-resource request for this model resolves
	// to, built once at publish; nil on a Model built elsewhere, whose
	// requests build their set per lookup.
	one *modelSet
	// storeID is the store snapshot this model lives in, zero for none.
	// Guarded by the registry's storeMu.
	storeID storeID
}

// Registry holds the live model set with per-schema routing and atomic
// hot-swap: Publish installs a new version of a (schema, resource) slot
// with a single pointer store, so in-flight requests keep the version
// they looked up and new requests see the new one — no locks on the
// read path beyond the slot map's RLock, no downtime.
type Registry struct {
	mu      sync.RWMutex
	slots   map[ModelKey]*atomic.Pointer[Model]
	history map[ModelKey][]*Model // superseded versions, oldest first
	version atomic.Uint64         // global, monotonically increasing

	// Store-backed mode (AttachStore): every publish persists a
	// coherent per-schema snapshot, rollback walks snapshot history
	// instead of the in-memory stack, and crash recovery restores the
	// latest snapshots. Which snapshot a route serves is its model's
	// storeID; it is what makes "previous version" well-defined across
	// restarts. Where both are held, storeMu is taken after mu.
	storeMu   sync.Mutex
	store     *store.Store
	failed    map[uint64]bool // listed snapshots that failed to load (pick)
	storeLogf func(format string, args ...any)
}

// storeID is where a model lives in the store: the snapshot it was
// read from or persisted to, and that snapshot manifest's SHA-256 of
// its model file. It is set from the manifest already in hand, so
// reporting it never reads the store.
type storeID struct {
	snapshot uint64
	sha256   string
}

// idIn is resource k's storeID in snapshot man.
func idIn(man *store.Manifest, k plan.ResourceKind) storeID {
	e, _ := man.Resource(k.WireName())
	return storeID{snapshot: man.Version, sha256: e.SHA256}
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		slots:   make(map[ModelKey]*atomic.Pointer[Model]),
		history: make(map[ModelKey][]*Model),
		failed:  make(map[uint64]bool),
	}
}

// AttachStore puts the registry in store-backed mode: every subsequent
// publish — bootstrap, POST /models upload, feedback retrain rollout —
// persists a coherent snapshot of the schema's full model set through
// st, Rollback of a model that lives in a snapshot restores the
// previous one from the store (so it works across process restarts),
// and RestoreFromStore republishes the latest snapshots at boot.
// Models published before the attach are in no snapshot until a later
// publish persists them. logf (optional) receives store events.
func (r *Registry) AttachStore(st *store.Store, logf func(format string, args ...any)) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	r.storeMu.Lock()
	r.store = st
	r.storeLogf = logf
	r.storeMu.Unlock()
}

// Store returns the attached model store, or nil.
func (r *Registry) Store() *store.Store {
	r.storeMu.Lock()
	defer r.storeMu.Unlock()
	return r.store
}

// Publish installs est as the current model for (schema, est.Resource),
// replacing any previous version atomically, and returns the new
// version's metadata. Publishing under schema "" installs the fallback
// model used when a request's schema has no dedicated entry. The
// replaced version (if any) is retained on the slot's bounded rollback
// history, and — when a store is attached — a coherent snapshot of the
// schema's full model set is persisted.
func (r *Registry) Publish(schema string, est *core.Estimator) ModelInfo {
	return r.PublishAs(schema, est, "api")
}

// PublishAs is Publish with the producer recorded in the store
// manifest ("bootstrap", "upload", "retrain", ...). A snapshot write
// that fails is logged; the model serves either way.
func (r *Registry) PublishAs(schema string, est *core.Estimator, source string) ModelInfo {
	infos, _ := r.PublishSet(schema, source, est)
	return infos[0]
}

// errUnpersisted wraps the error of a snapshot write that failed after
// its models installed.
var errUnpersisted = errors.New("serve: snapshot not written")

// PublishSet installs every estimator in ests for schema, as Publish
// does one, then — with a store attached and one of them installed —
// persists one snapshot of the schema's model set and returns that
// write's error; the models serve either way.
func (r *Registry) PublishSet(schema, source string, ests ...*core.Estimator) ([]ModelInfo, error) {
	infos := make([]ModelInfo, len(ests))
	installed := make([]bool, len(ests))
	for i, est := range ests {
		infos[i], _, installed[i] = r.publish(schema, est, true, source, storeID{})
	}
	if !slices.Contains(installed, true) {
		return infos, nil
	}
	snap, err := r.persistSnapshot(schema, source)
	for i := range infos {
		if installed[i] {
			infos[i].Snapshot = snap
		}
	}
	return infos, err
}

// publish additionally returns the model it replaced and whether this
// version actually installed. When a concurrent publish with a higher
// version won the slot, installed is false and the returned ModelInfo
// and *Model describe the *winner* — callers can report which version
// actually serves.
//
// at is the store snapshot est lives in (restore, follower sync,
// rollback), zero for a model in none: it becomes the new Model's
// storeID, and an installed publish stamps its version on the
// returned info.
func (r *Registry) publish(schema string, est *core.Estimator, keepHistory bool, source string, at storeID) (ModelInfo, *Model, bool) {
	info := ModelInfo{
		Schema:       schema,
		Resource:     est.Resource.String(),
		Mode:         est.Mode.String(),
		Version:      r.version.Add(1),
		NumModels:    est.NumModels(),
		LoadedAt:     time.Now().UTC(),
		Source:       source,
		TrainSamples: est.TrainSamples(),
	}
	m := &Model{Info: info, Est: est, storeID: at}
	if est.Resource.Valid() {
		var models [plan.NumResources]*Model
		models[est.Resource] = m
		m.one, _ = newModelSet([]plan.ResourceKind{est.Resource}, &models)
	}
	key := ModelKey{Schema: schema, Resource: est.Resource}

	r.mu.RLock()
	slot, ok := r.slots[key]
	r.mu.RUnlock()
	if !ok {
		r.mu.Lock()
		if slot, ok = r.slots[key]; !ok {
			slot = new(atomic.Pointer[Model])
			r.slots[key] = slot
		}
		r.mu.Unlock()
	}
	// CAS loop so concurrent publishes to the same slot settle on the
	// highest version: a plain Store could let a lower-versioned racer
	// overwrite a higher one after both allocated their versions.
	for {
		old := slot.Load()
		if old != nil && old.Info.Version > info.Version {
			// A newer version won the race; ours is already superseded.
			// Hand the winner back so the caller can report the version
			// that actually serves.
			return old.Info, old, false
		}
		// Lineage: the version we are about to displace is this one's
		// parent. Set before the CAS so retries against a different
		// incumbent restamp it.
		m.Info.Parent = 0
		if old != nil {
			m.Info.Parent = old.Info.Version
		}
		if slot.CompareAndSwap(old, m) {
			if old != nil && keepHistory {
				r.pushHistory(key, old)
			}
			info = m.Info
			info.Snapshot = at.snapshot
			return info, old, true
		}
	}
}

func (r *Registry) logStore(format string, args ...any) {
	r.storeMu.Lock()
	logf := r.storeLogf
	r.storeMu.Unlock()
	if logf != nil {
		logf(format, args...)
	}
}

// persistSnapshot writes schema's complete current model set (every
// resource with a live exact-schema slot) to the attached store as one
// snapshot, then moves each persisted model's storeID to it. A publish
// of one resource therefore persists a *coherent* multi-resource
// snapshot — crash recovery restores the exact serving set, not a
// single orphaned model. No-op without a store. A write that fails is
// logged and returned wrapping errUnpersisted.
func (r *Registry) persistSnapshot(schema, source string) (uint64, error) {
	st := r.Store()
	if st == nil {
		return 0, nil
	}
	models := make(map[plan.ResourceKind]*Model)
	ests := make(map[plan.ResourceKind]*core.Estimator)
	for _, k := range plan.ResourceKinds() {
		if m := r.serving(ModelKey{Schema: schema, Resource: k}); m != nil {
			models[k], ests[k] = m, m.Est
		}
	}
	if len(models) == 0 {
		return 0, nil
	}
	man, err := st.Publish(store.Snapshot{Schema: schema, Source: source, Models: ests})
	if err != nil {
		r.logStore("store: persisting %q %s: %v", schema, source, err)
		return 0, fmt.Errorf("%w: %w", errUnpersisted, err)
	}
	r.storeMu.Lock()
	for k, m := range models {
		// Advance-only: with two publishes for the same schema racing,
		// the one that allocated the higher snapshot may persist first —
		// the straggler must not drag the model and the durable
		// current.json backwards to its older snapshot, or a restart
		// would restore the loser.
		if man.Version > m.storeID.snapshot {
			m.storeID = idIn(man, k)
		}
	}
	r.storeMu.Unlock()
	r.saveCurrent(st, schema)
	return man.Version, nil
}

// serving is the model in key's exact slot (no wildcard fallback), or
// nil.
func (r *Registry) serving(key ModelKey) *Model {
	r.mu.RLock()
	slot := r.slots[key]
	r.mu.RUnlock()
	if slot == nil {
		return nil
	}
	return slot.Load()
}

// storeIDOf reads m's storeID; zero for a nil m.
func (r *Registry) storeIDOf(m *Model) storeID {
	if m == nil {
		return storeID{}
	}
	r.storeMu.Lock()
	defer r.storeMu.Unlock()
	return m.storeID
}

// saveCurrent records the snapshots schema's serving models live in,
// so a restart restores the snapshots that were actually serving —
// which after a rollback is *not* the newest one — and GC keeps them.
// A model in no snapshot is left out: a restart restores that route
// from the newest snapshot.
func (r *Registry) saveCurrent(st *store.Store, schema string) {
	cursors := make(map[string]uint64)
	for _, k := range plan.ResourceKinds() {
		if id := r.storeIDOf(r.serving(ModelKey{Schema: schema, Resource: k})); id.snapshot != 0 {
			cursors[k.WireName()] = id.snapshot
		}
	}
	if err := st.SetCurrent(schema, cursors); err != nil {
		r.logStore("store: recording serving cursors for %q: %v", schema, err)
	}
}

// pushHistory retains a superseded version for rollback, dropping the
// oldest entry past historyCap. The stack is kept in ascending version
// order explicitly: concurrent publishes reach this point in arbitrary
// interleavings, and a plain append could record a newer version below
// an older one — making Rollback skip the version that actually served
// last.
func (r *Registry) pushHistory(key ModelKey, old *Model) {
	r.mu.Lock()
	h := append(r.history[key], old)
	for i := len(h) - 1; i > 0 && h[i-1].Info.Version > h[i].Info.Version; i-- {
		h[i-1], h[i] = h[i], h[i-1]
	}
	if n := len(h) - historyCap; n > 0 {
		// The backing array outlives the reslice, and the GC scans all
		// of it: drop the references to the entries cut off, or each
		// route keeps up to historyCap more models alive.
		clear(h[:n])
		h = h[n:]
	}
	r.history[key] = h
	r.mu.Unlock()
}

// Rollback reverts (schema, resource) to the most recently superseded
// version: the prior estimator is re-published under a fresh version
// number, so prediction-cache entries keyed to the rolled-back version
// stop matching immediately and can never serve again. The rolled-back
// model is intentionally not pushed onto the history — repeated
// rollbacks walk further back instead of ping-ponging. A publish racing
// the rollback and winning the version race yields ErrRollbackConflict
// whose ModelInfo result names the version that won, never a silent
// no-op reported as success.
//
// With a store attached and the serving model in a snapshot, rollback
// restores the newest older snapshot that loads and holds a different
// model for the route — so it keeps working across process restarts,
// and what it restores is exactly what was persisted. Otherwise, or
// when no older snapshot qualifies (the store can lack history the
// in-memory stack still has, or hold only damaged copies of it),
// rollback pops the in-memory stack. Either way the rolled-back model
// keeps the snapshot it lives in, unless that snapshot failed to load:
// then it is written to a new one. With a store attached the serving
// record is rewritten.
func (r *Registry) Rollback(schema string, resource plan.ResourceKind) (ModelInfo, error) {
	key := ModelKey{Schema: schema, Resource: resource}
	st := r.Store()
	info, err := ModelInfo{}, ErrNoHistory
	if cur := r.storeIDOf(r.serving(key)); st != nil && cur.snapshot != 0 {
		info, err = r.rollbackFromStore(st, key, cur)
	}
	if errors.Is(err, ErrNoHistory) {
		info, err = r.rollbackFromMemory(key)
	}
	if err == nil && st != nil {
		r.saveCurrent(st, schema)
	}
	return info, err
}

// rollbackFromMemory pops the slot's in-memory history stack.
func (r *Registry) rollbackFromMemory(key ModelKey) (ModelInfo, error) {
	r.mu.Lock()
	h := r.history[key]
	if len(h) == 0 {
		r.mu.Unlock()
		return ModelInfo{}, fmt.Errorf("%w: schema %q resource %s", ErrNoHistory, key.Schema, key.Resource)
	}
	prev := h[len(h)-1]
	h[len(h)-1] = nil // the backing array must not keep it alive
	r.history[key] = h[:len(h)-1]
	r.mu.Unlock()
	at := r.storeIDOf(prev)
	r.storeMu.Lock()
	damaged := r.failed[at.snapshot]
	r.storeMu.Unlock()
	if damaged {
		at = storeID{} // a restart could not restore it from there
	}
	info, err := r.rollbackTo(key.Schema, prev.Est, at)
	if err != nil {
		// Our rollback never served: put the entry back for a retry.
		r.pushHistory(key, prev)
	} else if damaged {
		info.Snapshot, _ = r.persistSnapshot(key.Schema, "rollback")
	}
	return info, err
}

// rollbackTo installs est as its route's rolled-back model; at is the
// snapshot est lives in, as for publish. A publish that allocated a
// higher version and won the slot yields ErrRollbackConflict, with the
// winner's info. The model the rollback
// displaces is normally the one being rolled away from and is
// deliberately dropped (no ping-pong). But if a concurrent publish
// slipped in between the caller's choice of target and this install,
// it displaced a model its publisher was told is serving — retain it
// for recovery rather than silently discarding it.
func (r *Registry) rollbackTo(schema string, est *core.Estimator, at storeID) (ModelInfo, error) {
	expected, _ := r.Lookup(schema, est.Resource)
	info, replaced, installed := r.publish(schema, est, false, "rollback", at)
	if !installed {
		return info, fmt.Errorf("%w: version %d is now serving", ErrRollbackConflict, info.Version)
	}
	if replaced != nil && (expected == nil || replaced.Info.Version != expected.Info.Version) {
		r.pushHistory(ModelKey{Schema: schema, Resource: est.Resource}, replaced)
	}
	return info, nil
}

// rollbackFromStore restores the newest snapshot older than cur, the
// serving model's, that loads and whose model for the resource differs
// in content (consecutive snapshots written by *other* resources'
// publishes carry the same model file for this resource — skipping by
// checksum is what makes rollback mean "previous model", not "previous
// snapshot"). ErrNoHistory when none does.
func (r *Registry) rollbackFromStore(st *store.Store, key ModelKey, cur storeID) (ModelInfo, error) {
	bySchema, err := r.listing(st)
	if err != nil {
		return ModelInfo{}, err
	}
	l := r.pick(st, "rollback", bySchema[key.Schema], key.Resource, make(map[uint64]*store.Loaded), func(m *store.Manifest) bool {
		e, _ := m.Resource(key.Resource.WireName())
		return m.Version < cur.snapshot && e.SHA256 != cur.sha256
	})
	if l == nil {
		return ModelInfo{}, fmt.Errorf("%w: schema %q resource %s", ErrNoHistory, key.Schema, key.Resource)
	}
	info, err := r.rollbackTo(key.Schema, l.Models[key.Resource], idIn(l.Manifest, key.Resource))
	if err != nil {
		return info, err
	}
	r.logStore("store: rolled %s/%s back to snapshot v%d (registry v%d)", key.Schema, key.Resource, l.Manifest.Version, info.Version)
	return info, nil
}

// CurrentEstimator returns the live estimator and version for (schema,
// resource), following the wildcard fallback. Together with
// PublishEstimator it implements the feedback subsystem's Publisher
// interface, connecting drift-triggered retraining to the registry.
func (r *Registry) CurrentEstimator(schema string, resource plan.ResourceKind) (*core.Estimator, uint64, bool) {
	m, ok := r.Lookup(schema, resource)
	if !ok {
		return nil, 0, false
	}
	return m.Est, m.Info.Version, true
}

// PublishEstimator atomically installs est for schema and returns the
// assigned version (feedback.Publisher). With a store attached, the
// retrained model is persisted as a coherent snapshot alongside the
// schema's other live models.
func (r *Registry) PublishEstimator(schema string, est *core.Estimator) uint64 {
	return r.PublishAs(schema, est, "retrain").Version
}

// PublishFile loads an estimator saved by core (*Estimator).Save and
// publishes it under schema as PublishSet does.
func (r *Registry) PublishFile(schema, path string) (ModelInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return ModelInfo{}, err
	}
	defer f.Close()
	est, err := core.LoadEstimator(f)
	if err != nil {
		return ModelInfo{}, fmt.Errorf("serve: load %s: %w", path, err)
	}
	infos, err := r.PublishSet(schema, "upload", est)
	return infos[0], err
}

// Lookup returns the current model for (schema, resource), falling back
// to the "" wildcard schema when no dedicated model exists.
func (r *Registry) Lookup(schema string, resource plan.ResourceKind) (*Model, bool) {
	r.mu.RLock()
	slot, ok := r.slots[ModelKey{Schema: schema, Resource: resource}]
	if !ok && schema != "" {
		slot, ok = r.slots[ModelKey{Schema: "", Resource: resource}]
	}
	r.mu.RUnlock()
	if !ok {
		return nil, false
	}
	m := slot.Load()
	return m, m != nil
}

// Serving reports whether v still names the models Lookup resolves
// schema's requests to: every resource v carries a version for is
// served by exactly that version now. Versions are never reused — a
// rollback republishes under a fresh one — so an answer computed under
// v is, while this holds, the answer a fresh computation would give;
// and because it asks Lookup, a schema that was answered by the ""
// fallback stops matching the moment it gets a model of its own.
func (r *Registry) Serving(schema string, v Versions) bool {
	for k, want := range v {
		if want == 0 {
			continue
		}
		if m, ok := r.Lookup(schema, plan.ResourceKind(k)); !ok || m.Info.Version != want {
			return false
		}
	}
	return true
}

// Models lists the currently published model versions, sorted by
// version for stable output. Each entry's Snapshot is the store
// snapshot its model lives in (0 for a model in none).
func (r *Registry) Models() []ModelInfo {
	r.mu.RLock()
	out := make([]ModelInfo, 0, len(r.slots))
	for _, slot := range r.slots {
		if m := slot.Load(); m != nil {
			info := m.Info
			info.Snapshot = r.storeIDOf(m).snapshot
			out = append(out, info)
		}
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Version < out[j].Version })
	return out
}
