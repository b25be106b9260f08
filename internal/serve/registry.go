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
	// Snapshot is the model-store snapshot version this publish was
	// persisted under (0 when no store is attached, the snapshot write
	// failed, or the model was restored rather than freshly published).
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
	// latest snapshots. cursor tracks, per slot, the snapshot version
	// whose model is currently serving; it is what makes "previous
	// version" well-defined across restarts.
	storeMu   sync.Mutex
	store     *store.Store
	cursor    map[ModelKey]uint64
	dirty     map[string]bool            // schemas whose last snapshot persist failed
	manCache  map[uint64]*store.Manifest // memoized immutable manifests (VersionVector)
	storeLogf func(format string, args ...any)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		slots:   make(map[ModelKey]*atomic.Pointer[Model]),
		history: make(map[ModelKey][]*Model),
		cursor:  make(map[ModelKey]uint64),
		dirty:   make(map[string]bool),
	}
}

// AttachStore puts the registry in store-backed mode: every subsequent
// publish — bootstrap, POST /models upload, feedback retrain rollout —
// persists a coherent snapshot of the schema's full model set through
// st, Rollback restores previous versions from those snapshots (so it
// works across process restarts), and RestoreFromStore republishes the
// latest snapshots at boot. logf (optional) receives store events.
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
// manifest ("bootstrap", "upload", "retrain", ...).
func (r *Registry) PublishAs(schema string, est *core.Estimator, source string) ModelInfo {
	info, _, installed := r.publish(schema, est, true, source, 0)
	if installed {
		if snap, err := r.persistSnapshot(schema, source); err != nil {
			r.logStore("store: persisting %s/%s publish: %v", schema, est.Resource, err)
		} else {
			info.Snapshot = snap
		}
	}
	return info
}

// publish additionally returns the model it replaced and whether this
// version actually installed. When a concurrent publish with a higher
// version won the slot, installed is false and the returned ModelInfo
// and *Model describe the *winner* — callers can report which version
// actually serves.
//
// A non-zero snapshot names the store snapshot est was read from
// (restore, follower sync, store rollback): an installed publish stamps
// it on the returned info and moves the route's cursor to it.
func (r *Registry) publish(schema string, est *core.Estimator, keepHistory bool, source string, snapshot uint64) (ModelInfo, *Model, bool) {
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
	m := &Model{Info: info, Est: est}
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
			if snapshot != 0 {
				r.storeMu.Lock()
				r.cursor[key] = snapshot
				r.storeMu.Unlock()
			}
			info = m.Info
			info.Snapshot = snapshot
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
// snapshot, then advances the store cursors for the slots the snapshot
// now backs. A publish of one resource therefore persists a *coherent*
// multi-resource snapshot — crash recovery restores the exact serving
// set, not a single orphaned model. No-op without a store.
func (r *Registry) persistSnapshot(schema, source string) (uint64, error) {
	st := r.Store()
	if st == nil {
		return 0, nil
	}
	models := make(map[plan.ResourceKind]*core.Estimator)
	r.mu.RLock()
	for _, k := range plan.ResourceKinds() {
		if slot, ok := r.slots[ModelKey{Schema: schema, Resource: k}]; ok {
			if m := slot.Load(); m != nil {
				models[k] = m.Est
			}
		}
	}
	r.mu.RUnlock()
	if len(models) == 0 {
		return 0, nil
	}
	man, err := st.Publish(store.Snapshot{Schema: schema, Source: source, Models: models})
	if err != nil {
		r.storeMu.Lock()
		// The serving set and the store have diverged; stop trusting
		// snapshot history for this schema until a publish persists
		// again (Rollback falls back to the in-memory stack).
		r.dirty[schema] = true
		r.storeMu.Unlock()
		return 0, err
	}
	r.storeMu.Lock()
	delete(r.dirty, schema)
	for k := range models {
		key := ModelKey{Schema: schema, Resource: k}
		// Advance-only: with two publishes for the same schema racing,
		// the one that allocated the higher snapshot may persist (and
		// update cursors) first — the straggler must not drag the
		// serving cursor and the durable current.json backwards to its
		// older snapshot, or a restart would restore the loser.
		// (Rollback moves cursors backwards deliberately, under its own
		// path.)
		if man.Version > r.cursor[key] {
			r.cursor[key] = man.Version
		}
	}
	r.storeMu.Unlock()
	r.saveCurrent(st, schema)
	return man.Version, nil
}

// saveCurrent records schema's serving cursors in the store, so a
// restart restores the snapshots that were actually serving — which
// after a rollback is *not* the newest one — and GC keeps them.
func (r *Registry) saveCurrent(st *store.Store, schema string) {
	r.storeMu.Lock()
	cursors := make(map[string]uint64)
	for key, v := range r.cursor {
		if key.Schema == schema && v != 0 {
			cursors[key.Resource.WireName()] = v
		}
	}
	r.storeMu.Unlock()
	if err := st.SetCurrent(schema, cursors); err != nil {
		r.logStore("store: recording serving cursors for %q: %v", schema, err)
	}
}

// RestoreFromStore republishes the model set every schema in the
// attached store was last *serving* — crash recovery. Each route's
// snapshot comes from the durable serving-cursor record (so a route
// rolled back before the restart resumes on its rolled-back model, not
// the newest snapshot); routes without a record fall back to the
// newest intact snapshot, and corrupt snapshots are skipped (logged).
// Restored publishes do not write new snapshots.
func (r *Registry) RestoreFromStore() ([]ModelInfo, error) {
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
		cursors := st.Current(schema)
		// Each snapshot loads at most once per schema, a failure
		// included (memoized as nil). Version 0 stands for the newest
		// intact snapshot: the fallback for a route with no record or
		// whose recorded snapshot no longer loads.
		loaded := make(map[uint64]*store.Loaded)
		load := func(v uint64) *store.Loaded {
			l, ok := loaded[v]
			if !ok {
				var err error
				if v == 0 {
					l, err = st.LoadLatest(schema)
				} else {
					l, err = st.LoadVersion(v)
				}
				if err != nil {
					r.logStore("store: restore %q: %v", schema, err)
				}
				loaded[v] = l
			}
			return l
		}
		for _, k := range plan.ResourceKinds() {
			l := load(cursors[k.WireName()])
			if l == nil {
				l = load(0)
			}
			if l == nil {
				continue
			}
			est, ok := l.Models[k]
			if !ok {
				continue
			}
			if info, _, installed := r.publish(schema, est, true, "restore", l.Manifest.Version); installed {
				out = append(out, info)
			}
		}
		r.saveCurrent(st, schema)
	}
	return out, nil
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
// With a store attached, rollback restores the previous version from
// the snapshot history on disk instead of the in-memory stack — so it
// keeps working across process restarts, and what it restores is
// exactly what was persisted.
func (r *Registry) Rollback(schema string, resource plan.ResourceKind) (ModelInfo, error) {
	r.storeMu.Lock()
	st := r.store
	dirty := r.dirty[schema]
	r.storeMu.Unlock()
	if st != nil && !dirty {
		info, err := r.rollbackFromStore(st, schema, resource)
		// The store can lack history the in-memory stack still has:
		// models published before the store was attached, or whose
		// snapshot writes failed. Fall back rather than refusing a
		// rollback the registry can actually perform.
		if errors.Is(err, ErrNoHistory) && r.hasMemoryHistory(schema, resource) {
			r.logStore("store: no snapshot history for %s/%s, rolling back from the in-memory stack", schema, resource)
			return r.rollbackFromMemory(schema, resource)
		}
		return info, err
	}
	if st != nil {
		r.logStore("store: last snapshot persist for %q failed; rolling back from the in-memory stack", schema)
	}
	return r.rollbackFromMemory(schema, resource)
}

func (r *Registry) hasMemoryHistory(schema string, resource plan.ResourceKind) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.history[ModelKey{Schema: schema, Resource: resource}]) > 0
}

// rollbackFromMemory pops the slot's in-memory history stack.
func (r *Registry) rollbackFromMemory(schema string, resource plan.ResourceKind) (ModelInfo, error) {
	key := ModelKey{Schema: schema, Resource: resource}
	r.mu.Lock()
	h := r.history[key]
	if len(h) == 0 {
		r.mu.Unlock()
		return ModelInfo{}, fmt.Errorf("%w: schema %q resource %s", ErrNoHistory, schema, resource)
	}
	prev := h[len(h)-1]
	h[len(h)-1] = nil // the backing array must not keep it alive
	r.history[key] = h[:len(h)-1]
	r.mu.Unlock()
	info, err := r.rollbackTo(schema, prev.Est, 0)
	if err != nil {
		// Our rollback never served: put the entry back for a retry.
		r.pushHistory(key, prev)
	}
	return info, err
}

// rollbackTo installs est as its route's rolled-back model; snapshot is
// publish's (0 for an in-memory history entry). A publish that
// allocated a higher version and won the slot yields
// ErrRollbackConflict, with the winner's info. The model the rollback
// displaces is normally the one being rolled away from and is
// deliberately dropped (no ping-pong). But if a concurrent publish
// slipped in between the caller's choice of target and this install,
// it displaced a model its publisher was told is serving — retain it
// for recovery rather than silently discarding it.
func (r *Registry) rollbackTo(schema string, est *core.Estimator, snapshot uint64) (ModelInfo, error) {
	expected, _ := r.Lookup(schema, est.Resource)
	info, replaced, installed := r.publish(schema, est, false, "rollback", snapshot)
	if !installed {
		return info, fmt.Errorf("%w: version %d is now serving", ErrRollbackConflict, info.Version)
	}
	if replaced != nil && (expected == nil || replaced.Info.Version != expected.Info.Version) {
		r.pushHistory(ModelKey{Schema: schema, Resource: est.Resource}, replaced)
	}
	return info, nil
}

// rollbackFromStore restores the newest snapshot older than the
// serving one whose model for the resource actually differs in content
// (consecutive snapshots written by *other* resources' publishes carry
// the same model file for this resource — skipping by checksum is what
// makes rollback mean "previous model", not "previous snapshot").
func (r *Registry) rollbackFromStore(st *store.Store, schema string, resource plan.ResourceKind) (ModelInfo, error) {
	key := ModelKey{Schema: schema, Resource: resource}
	wire := resource.WireName()
	mans, err := st.List()
	if err != nil {
		return ModelInfo{}, err
	}
	r.storeMu.Lock()
	cur := r.cursor[key]
	r.storeMu.Unlock()
	var curSha string
	if cur == 0 {
		// No cursor (models published before the store was attached):
		// the newest schema snapshot carrying the resource stands in
		// for "currently serving".
		for i := len(mans) - 1; i >= 0; i-- {
			if m := mans[i]; m.Schema == schema {
				if e, ok := m.Resource(wire); ok {
					cur, curSha = m.Version, e.SHA256
					break
				}
			}
		}
		if cur == 0 {
			return ModelInfo{}, fmt.Errorf("%w: schema %q resource %s (no snapshots)", ErrNoHistory, schema, resource)
		}
	} else {
		for _, m := range mans {
			if m.Version == cur {
				if e, ok := m.Resource(wire); ok {
					curSha = e.SHA256
				}
				break
			}
		}
	}
	var target uint64
	for i := len(mans) - 1; i >= 0; i-- {
		m := mans[i]
		if m.Version >= cur || m.Schema != schema {
			continue
		}
		e, ok := m.Resource(wire)
		if !ok {
			continue
		}
		if curSha != "" && e.SHA256 == curSha {
			continue
		}
		target = m.Version
		break
	}
	if target == 0 {
		return ModelInfo{}, fmt.Errorf("%w: schema %q resource %s", ErrNoHistory, schema, resource)
	}
	loaded, err := st.LoadVersion(target)
	if err != nil {
		return ModelInfo{}, err
	}
	est, ok := loaded.Models[resource]
	if !ok {
		return ModelInfo{}, fmt.Errorf("%w: snapshot v%d lost its %s model", store.ErrCorrupt, target, resource)
	}
	info, err := r.rollbackTo(schema, est, target)
	if err != nil {
		return info, err
	}
	r.saveCurrent(st, schema)
	r.logStore("store: rolled %s/%s back to snapshot v%d (registry v%d)", schema, resource, target, info.Version)
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
// publishes it under schema.
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
	return r.PublishAs(schema, est, "upload"), nil
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
// version for stable output. In store-backed mode each entry carries
// the snapshot version currently backing its slot.
func (r *Registry) Models() []ModelInfo {
	r.mu.RLock()
	out := make([]ModelInfo, 0, len(r.slots))
	keys := make([]ModelKey, 0, len(r.slots))
	for key, slot := range r.slots {
		if m := slot.Load(); m != nil {
			out = append(out, m.Info)
			keys = append(keys, key)
		}
	}
	r.mu.RUnlock()
	r.storeMu.Lock()
	if r.store != nil {
		for i, key := range keys {
			out[i].Snapshot = r.cursor[key]
		}
	}
	r.storeMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Version < out[j].Version })
	return out
}
