// Package store is the versioned on-disk model store — the single
// source of truth for every published model snapshot.
//
// Before it existed, the three model producers each persisted their
// own way: resserve -bootstrap trained in memory and kept nothing,
// POST /models read loose files from a directory, and the feedback
// retrainer published straight into the registry with no durable
// record. The store unifies them: every publish writes one *snapshot* —
// a directory holding the schema's model files (one per resource) plus
// a JSON manifest with checksums — atomically, via temp-dir + rename.
// The serving registry reads the same snapshots back for crash
// recovery (load-latest at boot) and rollback (load the previous
// version), and retention GC keeps the newest Retain snapshots per
// schema plus every snapshot the serving record (SetCurrent) names.
//
// Layout:
//
//	<dir>/v0000000007/manifest.json   snapshot 7's manifest
//	<dir>/v0000000007/cpu.model.json  model blobs (core.Estimator.Save)
//	<dir>/v0000000007/io.model.json
//	<dir>/v0000000007/cpu.model.slab  compiled slabs (core.Estimator.EncodeSlab),
//	<dir>/v0000000007/io.model.slab   the layout restores read first
//	<dir>/.tmp-*                      in-flight publishes (cleaned at Open)
//
// A crash mid-publish leaves only a .tmp-* directory, which Open
// removes; a snapshot directory either exists completely (the rename
// is atomic) or not at all. Corruption after the fact — torn writes,
// bit rot, tampering — is caught at load time by the manifest's SHA-256
// checksums, and LoadLatest falls back to the newest intact snapshot.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/plan"
)

var (
	// ErrNotFound means no snapshot matches the request.
	ErrNotFound = errors.New("store: snapshot not found")
	// ErrCorrupt wraps snapshots that exist on disk but fail
	// validation: unreadable or invalid manifest, missing model files,
	// or checksum mismatches.
	ErrCorrupt = errors.New("store: corrupt snapshot")
)

// SlabMode is ignored: every publish writes a compiled slab next to
// each model blob, and every restore tries it first. The type and its
// two values stay only because the benchmark passes them; they go with
// ROADMAP 1(g).
type SlabMode int

const (
	// SlabExact is ignored (see SlabMode).
	SlabExact SlabMode = iota
	// SlabQuantized is ignored (see SlabMode). It named a
	// float32-quantized slab section that is no longer written or read.
	SlabQuantized
)

// Options configures a Store.
type Options struct {
	// Retain bounds the number of snapshots kept per schema: GC removes
	// older ones, except those the serving record (SetCurrent) names.
	// 0 selects the default (16); negative disables GC entirely.
	Retain int
	// Slab is ignored (see SlabMode).
	Slab SlabMode
	// Logf, when set, receives one line per notable event (tmp cleanup,
	// corrupt snapshot skipped, GC).
	Logf func(format string, args ...any)
}

// Store is a versioned on-disk model store. All methods are safe for
// concurrent use.
type Store struct {
	dir    string
	retain int
	logf   func(format string, args ...any)

	mu      sync.Mutex
	next    uint64                       // next snapshot version to assign
	serving map[string]map[string]uint64 // SetCurrent's record, as last given

	// Timing histograms of successful publishes (encode + write + fsync
	// + rename) and snapshot loads (read + checksum + decode), surfaced
	// through the serving layer's /metrics.
	pubHist     obs.Histogram
	restoreHist obs.Histogram
}

// Timings snapshots the publish and load/restore latency histograms.
func (s *Store) Timings() (publish, restore obs.HistogramSnapshot) {
	return s.pubHist.Snapshot(), s.restoreHist.Snapshot()
}

// Snapshot is the input to Publish: one schema's model set.
type Snapshot struct {
	// Schema the models serve ("" = wildcard).
	Schema string
	// Source labels the producer for the manifest ("bootstrap",
	// "upload", "retrain", ...).
	Source string
	// Models holds at least one estimator per resource kind to persist.
	Models map[plan.ResourceKind]*core.Estimator
}

// Loaded is a snapshot read back from disk.
type Loaded struct {
	Manifest *Manifest
	Models   map[plan.ResourceKind]*core.Estimator
	// Layout records how each model was materialised: "mmap" names the
	// slab layout (the file read onto the heap, the compiled views
	// aliasing it, nothing decoded or recompiled but the metadata), and
	// "json" the model blob's decode + recompile. Surfaced so operators
	// can confirm the fast path actually engaged.
	Layout map[plan.ResourceKind]string
}

const (
	manifestName = "manifest.json"
	currentName  = "current.json"
	tmpPrefix    = ".tmp-"
	dirFormat    = "v%010d"
)

// currentFile is the durable serving-cursor record: which snapshot
// version each (schema, resource) route is currently serving from.
// Publishes move a route's cursor to the new snapshot; rollbacks move
// it backwards — and because rollback deliberately writes no new
// snapshot, this file is what lets a restart resume the *rolled-back*
// serving state instead of the newest snapshot.
type currentFile struct {
	// Schemas maps schema → resource wire name → snapshot version.
	Schemas map[string]map[string]uint64 `json:"schemas"`
}

// Open opens (creating if needed) the store rooted at dir, removes
// temp directories left by crashed publishes, and positions the
// version counter after the highest snapshot on disk.
func Open(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		dir:     dir,
		retain:  opts.Retain,
		logf:    opts.Logf,
		serving: make(map[string]map[string]uint64),
	}
	if s.retain == 0 {
		s.retain = 16
	}
	if s.logf == nil {
		s.logf = func(string, ...any) {}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), tmpPrefix) {
			// A crash mid-publish: the rename never happened, so the
			// snapshot never existed. Remove the debris.
			s.logf("store: removing partial publish %s", e.Name())
			if err := os.RemoveAll(filepath.Join(dir, e.Name())); err != nil {
				return nil, fmt.Errorf("store: cleaning partial publish: %w", err)
			}
			continue
		}
		if v, ok := parseVersionDir(e.Name()); ok && v >= s.next {
			s.next = v + 1
		}
	}
	if s.next == 0 {
		s.next = 1
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

func parseVersionDir(name string) (uint64, bool) {
	var v uint64
	if n, err := fmt.Sscanf(name, dirFormat, &v); n != 1 || err != nil {
		return 0, false
	}
	return v, true
}

func (s *Store) versionDir(v uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf(dirFormat, v))
}

// Publish persists snap as a new snapshot version: model files and
// manifest are written to a temp directory, synced, and renamed into
// place in one atomic step — a reader (or a crash) sees either the
// whole snapshot or none of it. Retention GC runs afterwards.
func (s *Store) Publish(snap Snapshot) (*Manifest, error) {
	if len(snap.Models) == 0 {
		return nil, errors.New("store: publish with no models")
	}
	start := time.Now()
	s.mu.Lock()
	version := s.next
	s.next++
	s.mu.Unlock()

	man := &Manifest{
		FormatVersion: ManifestFormatVersion,
		Version:       version,
		Schema:        snap.Schema,
		Source:        snap.Source,
		Parent:        s.parentVersion(snap.Schema, version),
		CreatedAt:     time.Now().UTC(),
	}
	// The resources' encodes are independent, so they run side by side;
	// assembly in resource-kind order keeps manifests, file order and
	// which error is reported deterministic regardless of map iteration
	// or completion order.
	kinds := plan.ResourceKinds()
	encoded := make([]encodedModel, len(kinds))
	var wg sync.WaitGroup
	for i, r := range kinds {
		if est, ok := snap.Models[r]; ok {
			wg.Add(1)
			go func() {
				defer wg.Done()
				encoded[i] = s.encodeModel(r, est)
			}()
		}
	}
	wg.Wait()
	var files []namedBlob
	for i, r := range kinds {
		e := &encoded[i]
		if e.err != nil {
			return nil, e.err
		}
		if e.slabErr != nil {
			s.logf("store: %s slab encode skipped: %v", r, e.slabErr)
		}
		if e.files != nil {
			man.Models = append(man.Models, e.entry)
			files = append(files, e.files...)
		}
	}
	out, err := s.write(man, files)
	if err == nil {
		s.pubHist.Observe(time.Since(start))
	}
	return out, err
}

// encodedModel is one resource's share of a snapshot: its manifest
// entry and files, or the reason it cannot be published.
type encodedModel struct {
	entry   ModelEntry
	files   []namedBlob
	slabErr error
	err     error
}

func (s *Store) encodeModel(r plan.ResourceKind, est *core.Estimator) encodedModel {
	if est == nil {
		return encodedModel{err: fmt.Errorf("store: publish with nil %s model", r)}
	}
	if est.Resource != r {
		return encodedModel{err: fmt.Errorf("store: %s model keyed as %s", est.Resource, r)}
	}
	var buf strings.Builder
	if err := est.Save(&buf); err != nil {
		return encodedModel{err: fmt.Errorf("store: encode %s model: %w", r, err)}
	}
	blob := []byte(buf.String())
	sum := sha256.Sum256(blob)
	m := encodedModel{entry: ModelEntry{
		Resource:     r.WireName(),
		File:         r.WireName() + ".model.json",
		SHA256:       hex.EncodeToString(sum[:]),
		Mode:         est.Mode.String(),
		NumModels:    est.NumModels(),
		Baseline:     est.Baseline,
		TrainSamples: est.TrainSamples(),
	}}
	// The slab is an accelerator, never a publish failure: an encode
	// error just means this snapshot restores via JSON decode.
	if slab, err := est.EncodeSlab(); err != nil {
		m.slabErr = err
	} else {
		slabSum := sha256.Sum256(slab)
		m.entry.SlabFile = r.WireName() + ".model.slab"
		m.entry.SlabSHA256 = hex.EncodeToString(slabSum[:])
		m.files = append(m.files, namedBlob{name: m.entry.SlabFile, data: slab})
	}
	m.files = append(m.files, namedBlob{name: m.entry.File, data: blob})
	return m
}

// parentVersion returns schema's newest snapshot version below v — the
// provenance pointer each new manifest records. Best-effort: an
// unreadable directory or manifest simply yields 0 rather than failing
// the publish over an informational field.
func (s *Store) parentVersion(schema string, below uint64) uint64 {
	vs, err := s.versions()
	if err != nil {
		return 0
	}
	for i := len(vs) - 1; i >= 0; i-- {
		v := vs[i]
		if v >= below {
			continue
		}
		man, err := s.Manifest(v)
		if err != nil {
			continue
		}
		if man.Schema == schema {
			return v
		}
	}
	return 0
}

// namedBlob pairs a snapshot-relative file name with its contents.
type namedBlob struct {
	name string
	data []byte
}

func (s *Store) write(man *Manifest, files []namedBlob) (*Manifest, error) {
	manBytes, err := man.Encode()
	if err != nil {
		return nil, fmt.Errorf("store: encode manifest: %w", err)
	}
	tmp, err := os.MkdirTemp(s.dir, tmpPrefix)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	defer os.RemoveAll(tmp) // no-op after a successful rename

	for _, f := range append(files, namedBlob{name: manifestName, data: manBytes}) {
		if err := writeSynced(filepath.Join(tmp, f.name), f.data); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	if err := syncDir(tmp); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	final := s.versionDir(man.Version)
	if err := os.Rename(tmp, final); err != nil {
		return nil, fmt.Errorf("store: publish rename: %w", err)
	}
	if err := syncDir(s.dir); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if removed, err := s.GC(); err != nil {
		s.logf("store: gc after publish v%d: %v", man.Version, err)
	} else if len(removed) > 0 {
		s.logf("store: gc removed %d old snapshots", len(removed))
	}
	return man, nil
}

func writeSynced(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func syncDir(path string) error {
	d, err := os.Open(path)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// versions lists the snapshot version numbers present on disk,
// ascending.
func (s *Store) versions() ([]uint64, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var out []uint64
	for _, e := range entries {
		if v, ok := parseVersionDir(e.Name()); ok {
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// Manifest reads and validates snapshot v's manifest (checksums are
// not verified — see LoadVersion).
func (s *Store) Manifest(v uint64) (*Manifest, error) {
	data, err := os.ReadFile(filepath.Join(s.versionDir(v), manifestName))
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("%w: v%d", ErrNotFound, v)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: v%d: %v", ErrCorrupt, v, err)
	}
	man, err := DecodeManifest(data)
	if err != nil {
		return nil, fmt.Errorf("%w: v%d: %v", ErrCorrupt, v, err)
	}
	if man.Version != v {
		return nil, fmt.Errorf("%w: v%d: manifest claims version %d", ErrCorrupt, v, man.Version)
	}
	return man, nil
}

// List returns the manifests of every readable snapshot, ascending by
// version. Corrupt snapshots are skipped (and logged).
func (s *Store) List() ([]*Manifest, error) {
	vs, err := s.versions()
	if err != nil {
		return nil, err
	}
	out := make([]*Manifest, 0, len(vs))
	for _, v := range vs {
		man, err := s.Manifest(v)
		if err != nil {
			s.logf("store: skipping v%d: %v", v, err)
			continue
		}
		out = append(out, man)
	}
	return out, nil
}

// Schemas returns the distinct schemas with at least one readable
// snapshot, sorted.
func (s *Store) Schemas() ([]string, error) {
	mans, err := s.List()
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool)
	var out []string
	for _, m := range mans {
		if !seen[m.Schema] {
			seen[m.Schema] = true
			out = append(out, m.Schema)
		}
	}
	sort.Strings(out)
	return out, nil
}

// LoadVersion loads snapshot v, verifying every model file against the
// manifest's checksum before decoding it. A mismatch — a torn write, a
// truncated file, tampering — yields ErrCorrupt, never a silently
// wrong model.
//
// When the manifest lists a slab file, each model restores from the
// slab instead of JSON-decoding; a missing, corrupt or unloadable slab
// demotes that model to the JSON path (logged), and only if the JSON
// blob is *also* bad does the snapshot count as corrupt — at which
// point the caller's latest-intact-version walk takes over.
func (s *Store) LoadVersion(v uint64) (*Loaded, error) {
	start := time.Now()
	man, err := s.Manifest(v)
	if err != nil {
		return nil, err
	}
	out := &Loaded{
		Manifest: man,
		Models:   make(map[plan.ResourceKind]*core.Estimator, len(man.Models)),
		Layout:   make(map[plan.ResourceKind]string, len(man.Models)),
	}
	for _, e := range man.Models {
		r, ok := wireResource(e.Resource)
		if !ok {
			return nil, fmt.Errorf("%w: v%d: unknown resource %q", ErrCorrupt, v, e.Resource)
		}
		if e.SlabFile != "" {
			est, err := s.loadSlab(v, e, r)
			if err == nil {
				out.Models[r] = est
				out.Layout[r] = "mmap"
				continue
			}
			s.logf("store: v%d: %s slab unusable, falling back to JSON: %v", v, e.SlabFile, err)
		}
		data, err := os.ReadFile(filepath.Join(s.versionDir(v), e.File))
		if err != nil {
			return nil, fmt.Errorf("%w: v%d: %v", ErrCorrupt, v, err)
		}
		sum := sha256.Sum256(data)
		if hex.EncodeToString(sum[:]) != e.SHA256 {
			return nil, fmt.Errorf("%w: v%d: %s checksum mismatch", ErrCorrupt, v, e.File)
		}
		est, err := core.LoadEstimator(strings.NewReader(string(data)))
		if err != nil {
			return nil, fmt.Errorf("%w: v%d: %s: %v", ErrCorrupt, v, e.File, err)
		}
		if est.Resource != r {
			return nil, fmt.Errorf("%w: v%d: %s holds a %s model", ErrCorrupt, v, e.File, est.Resource)
		}
		out.Models[r] = est
		out.Layout[r] = "json"
	}
	s.restoreHist.Observe(time.Since(start))
	return out, nil
}

// loadSlab restores one model from its slab file: read onto the heap,
// then the slab decoder's own header/CRC/structural validation. The
// decoder checksums exactly the sections this restore reads; the
// manifest's whole-file SHA-256 stays an audit record rather than a
// second O(file) scan. The estimator's compiled views alias the bytes
// read, so the GC frees them with the last reference to the estimator.
// On any failure the caller falls back to the JSON blob.
func (s *Store) loadSlab(v uint64, e ModelEntry, r plan.ResourceKind) (*core.Estimator, error) {
	data, err := os.ReadFile(filepath.Join(s.versionDir(v), e.SlabFile))
	if err != nil {
		return nil, err
	}
	est, _, err := core.LoadEstimatorSlab(data, false)
	if err != nil {
		return nil, err
	}
	if est.Resource != r {
		return nil, fmt.Errorf("slab holds a %s model", est.Resource)
	}
	return est, nil
}

// LoadLatest loads the newest intact snapshot for schema, skipping
// corrupt ones (each skip is logged). ErrNotFound when the schema has
// no snapshot at all; ErrCorrupt when snapshots exist but none loads.
func (s *Store) LoadLatest(schema string) (*Loaded, error) {
	vs, err := s.versions()
	if err != nil {
		return nil, err
	}
	found := false
	var lastErr error
	for i := len(vs) - 1; i >= 0; i-- {
		v := vs[i]
		man, err := s.Manifest(v)
		if err != nil {
			lastErr = err
			s.logf("store: skipping v%d: %v", v, err)
			continue
		}
		if man.Schema != schema {
			continue
		}
		found = true
		loaded, err := s.LoadVersion(v)
		if err != nil {
			lastErr = err
			s.logf("store: skipping v%d: %v", v, err)
			continue
		}
		return loaded, nil
	}
	if found {
		return nil, fmt.Errorf("%w: no intact snapshot for schema %q (last error: %v)", ErrCorrupt, schema, lastErr)
	}
	return nil, fmt.Errorf("%w: schema %q", ErrNotFound, schema)
}

// SetCurrent records which snapshot version each of schema's resources
// is serving from: in memory, then durably (atomic write). An empty map
// clears the schema's record. GC keeps every snapshot either copy
// names, so the in-memory one protects the serving set when the write
// fails or the file is corrupted later.
func (s *Store) SetCurrent(schema string, cursors map[string]uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.readCurrentLocked()
	if cur.Schemas == nil {
		cur.Schemas = make(map[string]map[string]uint64)
	}
	if len(cursors) == 0 {
		delete(s.serving, schema)
		delete(cur.Schemas, schema)
	} else {
		cp := maps.Clone(cursors)
		s.serving[schema] = cp
		cur.Schemas[schema] = cp
	}
	data, err := json.MarshalIndent(cur, "", "  ")
	if err != nil {
		return fmt.Errorf("store: encode current: %w", err)
	}
	tmp := filepath.Join(s.dir, tmpPrefix+"current")
	if err := os.RemoveAll(tmp); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := writeSynced(tmp, append(data, '\n')); err != nil {
		return fmt.Errorf("store: write current: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, currentName)); err != nil {
		return fmt.Errorf("store: install current: %w", err)
	}
	return syncDir(s.dir)
}

// Current returns schema's recorded serving cursors (resource wire
// name → snapshot version), or nil when none were recorded (fall back
// to the latest snapshot).
func (s *Store) Current(schema string) map[string]uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.readCurrentLocked().Schemas[schema]
}

// readCurrentLocked parses current.json; a missing or corrupt file
// degrades to an empty record (restores then fall back to latest).
func (s *Store) readCurrentLocked() currentFile {
	var cur currentFile
	data, err := os.ReadFile(filepath.Join(s.dir, currentName))
	if err != nil {
		return cur
	}
	if err := json.Unmarshal(data, &cur); err != nil {
		s.logf("store: ignoring corrupt %s: %v", currentName, err)
		return currentFile{}
	}
	return cur
}

// GC enforces the retention bound: per schema, the newest Retain
// snapshots and every snapshot the serving record names survive; older
// ones are removed. Snapshots whose manifest is unreadable can never
// serve and are removed once they age past the retention window of the
// whole store. Returns the removed versions.
func (s *Store) GC() ([]uint64, error) {
	if s.retain < 0 {
		return nil, nil
	}
	vs, err := s.versions()
	if err != nil {
		return nil, err
	}
	perSchema := make(map[string][]uint64) // ascending per schema
	var unreadable []uint64
	for _, v := range vs {
		man, err := s.Manifest(v)
		if err != nil {
			unreadable = append(unreadable, v)
			continue
		}
		perSchema[man.Schema] = append(perSchema[man.Schema], v)
	}

	keep := make(map[uint64]bool)
	for _, svs := range perSchema {
		start := len(svs) - s.retain
		if start < 0 {
			start = 0
		}
		for _, v := range svs[start:] {
			keep[v] = true
		}
	}
	// Never remove a snapshot the serving record names. The in-memory
	// copy covers a current.json this process failed to write or that
	// was corrupted since; the durable one covers what another process
	// recorded, which a restart must be able to restore.
	s.mu.Lock()
	for _, rec := range []map[string]map[string]uint64{s.serving, s.readCurrentLocked().Schemas} {
		for _, cursors := range rec {
			for _, v := range cursors {
				keep[v] = true
			}
		}
	}
	s.mu.Unlock()
	// Unreadable snapshots within the newest-retain window of the whole
	// store are left alone: the operator may still want to inspect a
	// freshly corrupted snapshot. Older ones go.
	cutoff := uint64(0)
	if len(vs) > s.retain {
		cutoff = vs[len(vs)-s.retain]
	}
	var removed []uint64
	for _, v := range unreadable {
		if v >= cutoff {
			keep[v] = true
		}
	}
	for _, v := range vs {
		if keep[v] {
			continue
		}
		if err := os.RemoveAll(s.versionDir(v)); err != nil {
			return removed, fmt.Errorf("store: gc v%d: %w", v, err)
		}
		removed = append(removed, v)
	}
	return removed, nil
}

func wireResource(s string) (plan.ResourceKind, bool) {
	for _, r := range plan.ResourceKinds() {
		if s == r.WireName() {
			return r, true
		}
	}
	return 0, false
}
