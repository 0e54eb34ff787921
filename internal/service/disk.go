package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/run"
	"repro/internal/sim"
)

// diskVersion is the on-disk entry format version. Entries with a
// different version are treated as misses (recompute and overwrite),
// never misread.
const diskVersion = 1

// DiskStore is the persistent content-addressed result cache: one JSON
// file per executed run, addressed by the run's canonical Spec hash and
// sharded by the hash's first byte (objects/ab/abcdef….json).
//
// Durability discipline:
//
//   - writes are atomic: the entry is written to a temp file in the
//     destination directory, fsynced, then renamed into place, so a
//     crash mid-write leaves either the old entry or none — never a
//     torn one (concurrent writers of the same hash write identical
//     content, so last-rename-wins is harmless);
//   - reads are verified: the payload checksum must match, the stored
//     spec must re-hash to the entry's address, and the address must
//     match the filename; any mismatch (truncation, bit rot, a hand-
//     edited file) surfaces as ErrCorrupt and the caller recomputes.
//     There is one read path and it always runs every check; what a
//     caller chooses is only whether the verified result is then
//     decoded (Load) or left as bytes (a minimal answer reads the
//     entry's head alone);
//   - entries are loaded lazily — the store never scans the directory.
type DiskStore struct {
	root string
}

// ErrCorrupt marks an unreadable, truncated, or tampered cache entry.
// Callers treat it as a miss (and typically overwrite the entry with a
// freshly computed result).
var ErrCorrupt = errors.New("service: corrupt cache entry")

// NewDiskStore opens (creating if needed) a store rooted at dir.
func NewDiskStore(dir string) (*DiskStore, error) {
	if dir == "" {
		return nil, fmt.Errorf("service: cache directory required")
	}
	if err := os.MkdirAll(filepath.Join(dir, "objects"), 0o755); err != nil {
		return nil, fmt.Errorf("service: create cache dir: %w", err)
	}
	return &DiskStore{root: dir}, nil
}

// Root returns the store's root directory.
func (d *DiskStore) Root() string { return d.root }

// entryPath is the object file for a hash.
func (d *DiskStore) entryPath(hash string) string {
	return filepath.Join(d.root, "objects", hash[:2], hash+".json")
}

// diskEntry is the on-disk envelope. Payload is kept raw so the
// checksum covers the exact stored bytes.
type diskEntry struct {
	Version int             `json:"version"`
	Hash    string          `json:"hash"`
	Sum     string          `json:"sum"` // sha256 hex of Payload
	Payload json.RawMessage `json:"payload"`
}

// payloadJSON is the cached outcome: the self-describing spec plus the
// full result. Failed runs are never persisted, so there is no error
// field — a cached entry is always a completed, successful run.
type payloadJSON struct {
	Spec   SpecJSON    `json:"spec"`
	Point  core.Point  `json:"point"`
	Result apps.Result `json:"result"`
}

// payloadHead is payloadJSON as a minimal answer reads it: the same
// keys, with only the two result fields such an answer carries. The
// decoder steps over the rest of the result without building it.
type payloadHead struct {
	Spec   SpecJSON   `json:"spec"`
	Point  core.Point `json:"point"`
	Result struct {
		Elapsed  sim.Time
		Verified bool
	} `json:"result"`
}

// entry is one verified read of an object file: the head decoded, the
// payload — which the checksum covered whole, result included — kept as
// bytes until outcome decodes the result from it.
type entry struct {
	spec     run.Spec
	point    core.Point
	elapsed  sim.Time
	verified bool
	payload  json.RawMessage
}

// read fetches and verifies the entry stored under a spec hash; it is
// the store's only read path. found reports whether an entry existed at
// all; a found entry that fails any check — version, address, payload
// checksum, or the stored spec re-hashing to the address — returns
// ErrCorrupt (wrapped with detail) and should be recomputed.
func (d *DiskStore) read(hash string) (entry, bool, error) {
	raw, rerr := os.ReadFile(d.entryPath(hash))
	if rerr != nil {
		if errors.Is(rerr, fs.ErrNotExist) {
			return entry{}, false, nil
		}
		return entry{}, true, fmt.Errorf("%w: %v", ErrCorrupt, rerr)
	}
	var e diskEntry
	if jerr := json.Unmarshal(raw, &e); jerr != nil {
		return entry{}, true, fmt.Errorf("%w: %s: %v", ErrCorrupt, hash, jerr)
	}
	if e.Version != diskVersion {
		return entry{}, true, fmt.Errorf("%w: %s: version %d, want %d", ErrCorrupt, hash, e.Version, diskVersion)
	}
	if e.Hash != hash {
		return entry{}, true, fmt.Errorf("%w: entry %s claims hash %s", ErrCorrupt, hash, e.Hash)
	}
	sum := sha256.Sum256(e.Payload)
	if hex.EncodeToString(sum[:]) != e.Sum {
		return entry{}, true, fmt.Errorf("%w: %s: payload checksum mismatch", ErrCorrupt, hash)
	}
	var h payloadHead
	if jerr := json.Unmarshal(e.Payload, &h); jerr != nil {
		return entry{}, true, fmt.Errorf("%w: %s: payload: %v", ErrCorrupt, hash, jerr)
	}
	spec, serr := h.Spec.Spec()
	if serr != nil {
		return entry{}, true, fmt.Errorf("%w: %s: stored spec: %v", ErrCorrupt, hash, serr)
	}
	if got := spec.Hash(); got != hash {
		return entry{}, true, fmt.Errorf("%w: %s: stored spec re-hashes to %s", ErrCorrupt, hash, got)
	}
	return entry{
		spec: spec, point: h.Point,
		elapsed: h.Result.Elapsed, verified: h.Result.Verified,
		payload: e.Payload,
	}, true, nil
}

// head is the entry as an outcome without decoding anything further:
// Res holds only Elapsed and Verified, which is all a minimal answer and
// a sweep's denominator read.
func (e entry) head() run.Outcome {
	return run.Outcome{
		Spec: e.spec, Point: e.point,
		Res: apps.Result{Elapsed: e.elapsed, Verified: e.verified},
	}
}

// outcome decodes the full result. The bytes passed the checksum, so a
// failure here means they were written as something other than an
// apps.Result; that is ErrCorrupt like any other unreadable entry.
func (e entry) outcome() (run.Outcome, error) {
	var p payloadJSON
	if err := json.Unmarshal(e.payload, &p); err != nil {
		return run.Outcome{}, fmt.Errorf("%w: %v: result: %v", ErrCorrupt, e.spec, err)
	}
	return run.Outcome{Spec: e.spec, Res: p.Result, Point: e.point}, nil
}

// Load fetches the full outcome for a spec: a verified read, then the
// result decoded. found and err are as for read.
func (d *DiskStore) Load(s run.Spec) (out run.Outcome, found bool, err error) {
	e, found, err := d.read(s.Hash())
	if err != nil || !found {
		return run.Outcome{}, found, err
	}
	out, err = e.outcome()
	return out, true, err
}

// Store persists a completed outcome atomically. Outcomes carrying an
// error are refused: failures are conditions of the moment (a bad app
// name, a canceled context), not content.
func (d *DiskStore) Store(out run.Outcome) error {
	if out.Err != nil {
		return fmt.Errorf("service: refusing to cache failed run %v: %v", out.Spec, out.Err)
	}
	hash := out.Spec.Hash()
	payload, err := json.Marshal(payloadJSON{
		Spec:   SpecToJSON(out.Spec),
		Point:  out.Point,
		Result: out.Res,
	})
	if err != nil {
		return fmt.Errorf("service: encode %v: %w", out.Spec, err)
	}
	sum := sha256.Sum256(payload)
	raw, err := json.Marshal(diskEntry{
		Version: diskVersion,
		Hash:    hash,
		Sum:     hex.EncodeToString(sum[:]),
		Payload: payload,
	})
	if err != nil {
		return fmt.Errorf("service: encode entry %v: %w", out.Spec, err)
	}
	dst := d.entryPath(hash)
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return fmt.Errorf("service: cache shard: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(dst), "tmp-*")
	if err != nil {
		return fmt.Errorf("service: cache temp: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(raw); err != nil {
		tmp.Close()
		return fmt.Errorf("service: cache write: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("service: cache sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("service: cache close: %w", err)
	}
	if err := os.Rename(tmp.Name(), dst); err != nil {
		return fmt.Errorf("service: cache rename: %w", err)
	}
	return nil
}
