package store

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
)

// ManifestFormatVersion is the manifest schema version this build
// writes. Readers reject other versions rather than guessing.
const ManifestFormatVersion = 1

// maxManifestModels bounds the model list a decoded manifest may carry.
// A snapshot holds at most one model per resource kind; anything larger
// is corrupt (and, on the fuzzing surface, a memory-amplification
// vector).
const maxManifestModels = 16

// Manifest describes one published snapshot: the model set for a single
// schema across one or more resources, with content checksums so
// corruption (torn writes, bit rot, manual tampering) is detected at
// load time instead of silently serving a broken model.
type Manifest struct {
	// FormatVersion is the manifest schema version (ManifestFormatVersion).
	FormatVersion int `json:"format_version"`
	// Version is the store-assigned snapshot number, monotonically
	// increasing across all schemas.
	Version uint64 `json:"version"`
	// Schema the snapshot's models were trained for ("" = wildcard).
	Schema string `json:"schema"`
	// Source records which producer published the snapshot
	// ("bootstrap", "upload", "retrain", ...). Informational.
	Source string `json:"source,omitempty"`
	// Parent is the schema's previous snapshot version at publish time
	// (0 for the schema's first snapshot) — the provenance chain linking
	// each snapshot to the one it superseded.
	Parent uint64 `json:"parent,omitempty"`
	// CreatedAt is the publish time (UTC).
	CreatedAt time.Time `json:"created_at"`
	// Models lists the per-resource model files, in resource-kind order.
	Models []ModelEntry `json:"models"`
}

// ModelEntry is one resource's model within a snapshot.
type ModelEntry struct {
	// Resource is the wire name ("cpu", "io").
	Resource string `json:"resource"`
	// File is the model file's name within the snapshot directory.
	File string `json:"file"`
	// SHA256 is the hex checksum of the model file's contents.
	SHA256 string `json:"sha256"`
	// Mode is the feature mode the model was trained with
	// ("exact", "estimated").
	Mode string `json:"mode"`
	// NumModels is the model's candidate count (registry metadata).
	NumModels int `json:"num_models"`
	// Baseline is the training-time error snapshot the drift detector
	// compares against, duplicated here so operators can audit a
	// snapshot without decoding the model blob.
	Baseline *core.ErrorBaseline `json:"baseline,omitempty"`
	// TrainSamples is the number of per-operator training samples the
	// model was fitted on (provenance; 0 when unknown).
	TrainSamples int `json:"train_samples,omitempty"`
	// SlabFile names the model's compiled-slab sibling (the restore
	// format, see core.EncodeSlab), written alongside File at publish.
	// Optional: snapshots published by older builds have none and
	// restore via JSON decode; a missing or corrupt slab falls back the
	// same way, so the slab is an accelerator, never a second point of
	// failure.
	SlabFile string `json:"slab_file,omitempty"`
	// SlabSHA256 is the hex checksum of the whole slab file — the audit
	// record for operators and offline integrity sweeps. Loads do not
	// hash the whole file (that would cost more than the restore
	// itself); they rely on the slab's internal per-section CRCs, which
	// cover every byte a restore dereferences.
	SlabSHA256 string `json:"slab_sha256,omitempty"`
}

// Resource looks up the entry for the given wire name.
func (m *Manifest) Resource(wire string) (ModelEntry, bool) {
	for _, e := range m.Models {
		if e.Resource == wire {
			return e, true
		}
	}
	return ModelEntry{}, false
}

// Encode renders the manifest as indented JSON (deterministic: struct
// fields encode in declaration order).
func (m *Manifest) Encode() ([]byte, error) {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// DecodeManifest parses and validates a manifest. Every structural
// invariant is checked here — version, non-empty model list, per-entry
// file names and checksums — so callers (the loader and the fuzzer
// alike) can treat a decoded manifest as well-formed.
func DecodeManifest(data []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("store: manifest: %w", err)
	}
	if err := m.validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

func (m *Manifest) validate() error {
	if m.FormatVersion != ManifestFormatVersion {
		return fmt.Errorf("store: manifest: unsupported format version %d", m.FormatVersion)
	}
	if m.Version == 0 {
		return fmt.Errorf("store: manifest: zero snapshot version")
	}
	if len(m.Models) == 0 {
		return fmt.Errorf("store: manifest: no models")
	}
	if len(m.Models) > maxManifestModels {
		return fmt.Errorf("store: manifest: %d models exceeds the %d-entry limit", len(m.Models), maxManifestModels)
	}
	seen := make(map[string]bool, len(m.Models))
	for i, e := range m.Models {
		if e.Resource == "" {
			return fmt.Errorf("store: manifest: model %d missing resource", i)
		}
		if seen[e.Resource] {
			return fmt.Errorf("store: manifest: duplicate resource %q", e.Resource)
		}
		seen[e.Resource] = true
		if e.File == "" || strings.ContainsAny(e.File, "/\\") || e.File == "." || e.File == ".." {
			return fmt.Errorf("store: manifest: model %q has invalid file name %q", e.Resource, e.File)
		}
		if err := validChecksum(e.SHA256); err != nil {
			return fmt.Errorf("store: manifest: model %q has malformed checksum", e.Resource)
		}
		if e.SlabFile != "" {
			if strings.ContainsAny(e.SlabFile, "/\\") || e.SlabFile == "." || e.SlabFile == ".." || e.SlabFile == e.File {
				return fmt.Errorf("store: manifest: model %q has invalid slab file name %q", e.Resource, e.SlabFile)
			}
			if err := validChecksum(e.SlabSHA256); err != nil {
				return fmt.Errorf("store: manifest: model %q has malformed slab checksum", e.Resource)
			}
		} else if e.SlabSHA256 != "" {
			return fmt.Errorf("store: manifest: model %q has slab metadata but no slab file", e.Resource)
		}
	}
	return nil
}

func validChecksum(s string) error {
	if len(s) != 64 {
		return fmt.Errorf("checksum length %d", len(s))
	}
	for _, c := range s {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return fmt.Errorf("checksum character %q", c)
		}
	}
	return nil
}
