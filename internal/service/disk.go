package service

import (
	"bytes"
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
// different version are stale (ErrStale): recomputed and overwritten,
// never misread.
const diskVersion = 2

// DiskStore is the persistent content-addressed result cache: one file
// per executed run, addressed by the run's canonical Spec hash and
// sharded by the hash's first byte (objects/ab/abcdef….json).
//
// An entry is a length-prefixed frame of three parts:
//
//	{"version":2,"hash":…,"sum":…,"head_len":H,"result_len":R}\n
//	<head: H bytes of JSON — spec, point, elapsed, verified>
//	<result: R bytes of JSON — the apps.Result, as writeJSON encodes it>
//
// The header line says where the parts end, so a read decodes the
// ~180-byte head and never scans the result; sum is the sha256 of head
// and result together.
//
// Durability discipline:
//
//   - writes are atomic: the entry is written to a temp file in the
//     destination directory, fsynced, then renamed into place, so a
//     crash mid-write leaves either the old entry or none — never a
//     torn one (concurrent writers of the same hash write identical
//     content, so last-rename-wins is harmless);
//   - reads are verified: the version must be this one, the address
//     must match the filename, the lengths must add up to the file and
//     the checksum must match the bytes, and the stored spec must
//     re-hash to the address; any mismatch (truncation, bit rot, a
//     hand-edited file, an older format) surfaces as ErrCorrupt and the
//     caller recomputes. There is one read path and it always runs
//     every check; what a caller chooses is only what it does with the
//     verified result bytes: decode them (Load, or a plan whose render
//     reads that run's result), forward them (a full /v1/run answer) or
//     leave them (a minimal answer, and a plan's run whose render reads
//     only its point);
//   - entries are loaded lazily — the store never scans the directory.
type DiskStore struct {
	root string
}

// ErrCorrupt marks an unreadable, truncated, or tampered cache entry.
// Callers treat it as a miss (and typically overwrite the entry with a
// freshly computed result).
var ErrCorrupt = errors.New("service: corrupt cache entry")

// ErrStale marks an entry written in another format version. It wraps
// ErrCorrupt — an entry this store cannot read is recomputed either
// way — and is told apart only to count an upgrade as one.
var ErrStale = fmt.Errorf("%w: stale format version", ErrCorrupt)

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

// frameHeader is an entry's first line.
type frameHeader struct {
	Version   int    `json:"version"`
	Hash      string `json:"hash"`
	Sum       string `json:"sum"` // sha256 hex of head and result
	HeadLen   int    `json:"head_len"`
	ResultLen int    `json:"result_len"`
}

// frameHead is an entry's head: everything a minimal answer and a
// sweep's denominator read, and the spec the address is checked
// against. Failed runs are never persisted, so there is no error field
// — a cached entry is always a completed, successful run.
type frameHead struct {
	Spec     SpecJSON   `json:"spec"`
	Point    core.Point `json:"point"`
	Elapsed  sim.Time   `json:"elapsed"`
	Verified bool       `json:"verified"`
}

// entry is one verified read of an object file: the head decoded, the
// result — which the checksum covered — kept as the bytes Store wrote.
type entry struct {
	spec     run.Spec
	point    core.Point
	elapsed  sim.Time
	verified bool
	result   []byte
}

// read fetches and verifies the entry stored under a spec hash; it is
// the store's only read path. found reports whether an entry existed at
// all; a found entry that fails any check — version (ErrStale), address,
// lengths, checksum, or the stored spec re-hashing to the address —
// returns ErrCorrupt (wrapped with detail) and should be recomputed.
func (d *DiskStore) read(hash string) (entry, bool, error) {
	raw, rerr := os.ReadFile(d.entryPath(hash))
	if rerr != nil {
		if errors.Is(rerr, fs.ErrNotExist) {
			return entry{}, false, nil
		}
		return entry{}, true, fmt.Errorf("%w: %v", ErrCorrupt, rerr)
	}
	// With no newline the whole file is the header: a version-1 entry
	// is one JSON object on one line, and decoding it tells its version.
	line, body, framed := bytes.Cut(raw, []byte{'\n'})
	var h frameHeader
	if jerr := json.Unmarshal(line, &h); jerr != nil {
		return entry{}, true, fmt.Errorf("%w: %s: header: %v", ErrCorrupt, hash, jerr)
	}
	if h.Version != diskVersion {
		return entry{}, true, fmt.Errorf("%w: %s: version %d, want %d", ErrStale, hash, h.Version, diskVersion)
	}
	if !framed {
		return entry{}, true, fmt.Errorf("%w: %s: header has no newline", ErrCorrupt, hash)
	}
	if h.Hash != hash {
		return entry{}, true, fmt.Errorf("%w: entry %s claims hash %s", ErrCorrupt, hash, h.Hash)
	}
	if h.HeadLen < 0 || h.HeadLen > len(body) || h.ResultLen != len(body)-h.HeadLen {
		return entry{}, true, fmt.Errorf("%w: %s: lengths %d+%d, file has %d", ErrCorrupt, hash, h.HeadLen, h.ResultLen, len(body))
	}
	sum := sha256.Sum256(body)
	if hex.EncodeToString(sum[:]) != h.Sum {
		return entry{}, true, fmt.Errorf("%w: %s: checksum mismatch", ErrCorrupt, hash)
	}
	var head frameHead
	if jerr := json.Unmarshal(body[:h.HeadLen], &head); jerr != nil {
		return entry{}, true, fmt.Errorf("%w: %s: head: %v", ErrCorrupt, hash, jerr)
	}
	spec, serr := head.Spec.Spec()
	if serr != nil {
		return entry{}, true, fmt.Errorf("%w: %s: stored spec: %v", ErrCorrupt, hash, serr)
	}
	if got := spec.Hash(); got != hash {
		return entry{}, true, fmt.Errorf("%w: %s: stored spec re-hashes to %s", ErrCorrupt, hash, got)
	}
	return entry{
		spec: spec, point: head.Point,
		elapsed: head.Elapsed, verified: head.Verified,
		result: body[h.HeadLen:],
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
	var res apps.Result
	if err := json.Unmarshal(e.result, &res); err != nil {
		return run.Outcome{}, fmt.Errorf("%w: %v: result: %v", ErrCorrupt, e.spec, err)
	}
	return run.Outcome{Spec: e.spec, Res: res, Point: e.point}, nil
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

// encodeJSON encodes v as writeJSON does, without the trailing newline:
// no HTML escaping, so a stored result is byte for byte what a computed
// /v1/run answer carries, and a hit can forward it.
func encodeJSON(v any) ([]byte, error) {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return b.Bytes()[:b.Len()-1], nil
}

// Store persists a completed outcome atomically. Outcomes carrying an
// error are refused: failures are conditions of the moment (a bad app
// name, a canceled context), not content.
func (d *DiskStore) Store(out run.Outcome) error {
	if out.Err != nil {
		return fmt.Errorf("service: refusing to cache failed run %v: %v", out.Spec, out.Err)
	}
	hash := out.Spec.Hash()
	head, err := encodeJSON(frameHead{
		Spec:     SpecToJSON(out.Spec),
		Point:    out.Point,
		Elapsed:  out.Res.Elapsed,
		Verified: out.Res.Verified,
	})
	if err != nil {
		return fmt.Errorf("service: encode %v: %w", out.Spec, err)
	}
	result, err := encodeJSON(out.Res)
	if err != nil {
		return fmt.Errorf("service: encode %v: %w", out.Spec, err)
	}
	sum := sha256.New()
	sum.Write(head)
	sum.Write(result)
	header, err := json.Marshal(frameHeader{
		Version:   diskVersion,
		Hash:      hash,
		Sum:       hex.EncodeToString(sum.Sum(nil)),
		HeadLen:   len(head),
		ResultLen: len(result),
	})
	if err != nil {
		return fmt.Errorf("service: encode entry %v: %w", out.Spec, err)
	}
	raw := append(header, '\n')
	raw = append(raw, head...)
	raw = append(raw, result...)
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
