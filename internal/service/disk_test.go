package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/exp"
	"repro/internal/logp"
	"repro/internal/run"
)

// testOutcome executes one real (tiny) baseline run to exercise the
// store with a fully populated result: Stats, histograms, summary.
func testOutcome(t *testing.T) run.Outcome {
	t.Helper()
	r := &run.Runner{Params: logp.NOW(), Resolve: exp.ResolveApp}
	out := r.ExecBaseline(run.Baseline("radix", 4, 1.0/4096, 1, true))
	if out.Err != nil {
		t.Fatalf("baseline run failed: %v", out.Err)
	}
	return out
}

// outcomeBytes is the canonical comparison form of an outcome.
func outcomeBytes(t *testing.T, out run.Outcome) []byte {
	t.Helper()
	raw, err := json.Marshal(payloadJSON{Spec: SpecToJSON(out.Spec), Point: out.Point, Result: out.Res})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestDiskStoreRoundTrip(t *testing.T) {
	d, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	out := testOutcome(t)

	if _, found, err := d.Load(out.Spec); found || err != nil {
		t.Fatalf("Load before Store: found=%v err=%v, want miss", found, err)
	}
	if err := d.Store(out); err != nil {
		t.Fatal(err)
	}
	got, found, err := d.Load(out.Spec)
	if !found || err != nil {
		t.Fatalf("Load after Store: found=%v err=%v", found, err)
	}
	want, have := outcomeBytes(t, out), outcomeBytes(t, got)
	if string(want) != string(have) {
		t.Errorf("round trip not byte-identical:\nstored %s\nloaded %s", want, have)
	}
	// Storing again (idempotent overwrite) must keep the entry readable.
	if err := d.Store(out); err != nil {
		t.Fatal(err)
	}
	if _, found, err := d.Load(out.Spec); !found || err != nil {
		t.Fatalf("Load after re-Store: found=%v err=%v", found, err)
	}
}

func TestDiskStoreRefusesFailedRun(t *testing.T) {
	d, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	out := run.Outcome{Spec: run.Baseline("radix", 4, 1.0/4096, 1, false), Err: errors.New("boom")}
	if err := d.Store(out); err == nil {
		t.Fatal("Store accepted a failed run")
	}
}

// reseal rewrites an entry's payload and recomputes the envelope's
// checksum over it: a writer's mistake or a careful edit, which only the
// checks behind the checksum can catch.
func reseal(t testing.TB, raw []byte, old, new string) []byte {
	t.Helper()
	var e diskEntry
	if err := json.Unmarshal(raw, &e); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(e.Payload, []byte(old)) {
		t.Fatalf("payload has no %s to rewrite", old)
	}
	e.Payload = bytes.Replace(e.Payload, []byte(old), []byte(new), 1)
	sum := sha256.Sum256(e.Payload)
	e.Sum = hex.EncodeToString(sum[:])
	out, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// corruption is one way an object file can be wrong.
type corruption struct {
	name string
	raw  []byte
}

// corruptions damages a pristine entry of a seed-1 spec once per
// verification layer, and more than once where the layers differ in what
// they would let through.
func corruptions(t testing.TB, pristine []byte) []corruption {
	t.Helper()
	var e diskEntry
	if err := json.Unmarshal(pristine, &e); err != nil {
		t.Fatal(err)
	}
	envelope := func(edit func(*diskEntry)) []byte {
		c := e
		edit(&c)
		b, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	bitFlip := append([]byte(nil), pristine...)
	// A byte inside the payload checksum's coverage.
	idx := len(bitFlip) - len(e.Payload)/2
	if bitFlip[idx] == 'x' {
		bitFlip[idx] = 'y'
	} else {
		bitFlip[idx] = 'x'
	}
	// A digit of the barrier count: deep in the result, which a
	// head-only read steps over, and still valid JSON of the right
	// shape — nothing but the checksum can tell.
	digitFlip := append([]byte(nil), pristine...)
	at := bytes.Index(digitFlip, []byte(`"barriers":`))
	if at < 0 {
		t.Fatal("entry has no barrier count to damage")
	}
	at += len(`"barriers":`)
	if digitFlip[at] == '9' {
		digitFlip[at] = '8'
	} else {
		digitFlip[at]++
	}
	return []corruption{
		{"truncated", pristine[:len(pristine)/2]},
		{"not-json", []byte("not json at all")},
		{"bit-flip", bitFlip},
		{"digit-flip-in-result", digitFlip},
		{"version-bump", envelope(func(c *diskEntry) { c.Version = diskVersion + 1 })},
		{"wrong-address", envelope(func(c *diskEntry) { c.Hash = "0000" + c.Hash[4:] })},
		// Version, address and checksum all hold; only re-hashing the
		// stored spec shows the entry answers a different question.
		{"spec-tampered-resummed", reseal(t, pristine, `"seed":1`, `"seed":2`)},
	}
}

// TestDiskStoreCorruption covers every verification layer on both read
// entry points: truncation, damage under the payload checksum (shallow
// and deep inside the result), a version bump, a wrong stored hash and a
// re-sealed foreign spec all surface as ErrCorrupt (found, recompute),
// never as a wrong answer — whether or not the caller decodes the result.
func TestDiskStoreCorruption(t *testing.T) {
	d, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	out := testOutcome(t)
	if err := d.Store(out); err != nil {
		t.Fatal(err)
	}
	hash := out.Spec.Hash()
	path := d.entryPath(hash)
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	readers := []struct {
		name string
		read func() (bool, error)
	}{
		{"head", func() (bool, error) { _, found, err := d.read(hash); return found, err }},
		{"full", func() (bool, error) { _, found, err := d.Load(out.Spec); return found, err }},
	}

	for _, c := range corruptions(t, pristine) {
		t.Run(c.name, func(t *testing.T) {
			if err := os.WriteFile(path, c.raw, 0o644); err != nil {
				t.Fatal(err)
			}
			for _, r := range readers {
				found, err := r.read()
				if !found {
					t.Errorf("%s: corrupt entry reported as a clean miss", r.name)
				}
				if !errors.Is(err, ErrCorrupt) {
					t.Errorf("%s: err = %v, want ErrCorrupt", r.name, err)
				}
			}
		})
	}

	// After every corruption the pristine bytes must verify again.
	if err := os.WriteFile(path, pristine, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, r := range readers {
		if found, err := r.read(); !found || err != nil {
			t.Fatalf("%s: pristine reload: found=%v err=%v", r.name, found, err)
		}
	}
}

// TestDiskStoreUndecodableResult seals a payload whose result is not an
// apps.Result under a valid checksum. The head is what the writer wrote
// and reads fine; asking for the result is ErrCorrupt, not a decode
// error of its own.
func TestDiskStoreUndecodableResult(t *testing.T) {
	d, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	out := testOutcome(t)
	if err := d.Store(out); err != nil {
		t.Fatal(err)
	}
	hash := out.Spec.Hash()
	pristine, err := os.ReadFile(d.entryPath(hash))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(d.entryPath(hash), reseal(t, pristine, `"Procs":4`, `"Procs":"four"`), 0o644); err != nil {
		t.Fatal(err)
	}
	e, found, err := d.read(hash)
	if !found || err != nil {
		t.Fatalf("head: found=%v err=%v, want a verified entry", found, err)
	}
	if e.elapsed != out.Res.Elapsed || e.verified != out.Res.Verified || e.point != out.Point {
		t.Errorf("head = %+v, want the stored run's elapsed, verified and point", e)
	}
	if _, found, err := d.Load(out.Spec); !found || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("full: found=%v err=%v, want ErrCorrupt", found, err)
	}
}

// entryV1 is an object file exactly as the commit before the head-only
// read wrote it (format version 1): testOutcome's run, stored by that
// commit's DiskStore.Store.
const entryV1 = "testdata/entry-v1.json"

// TestDiskStoreReadsEarlierEntries pins that changing how entries are
// read did not change which entries are readable: bytes written before
// are served, head and result, and storing what was loaded reproduces
// them.
func TestDiskStoreReadsEarlierEntries(t *testing.T) {
	raw, err := os.ReadFile(entryV1)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := run.Baseline("radix", 4, 1.0/4096, 1, true)
	hash := spec.Hash()
	path := d.entryPath(hash)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	e, found, err := d.read(hash)
	if !found || err != nil {
		t.Fatalf("head: found=%v err=%v", found, err)
	}
	out, found, err := d.Load(spec)
	if !found || err != nil {
		t.Fatalf("full: found=%v err=%v", found, err)
	}
	if e.spec != out.Spec || e.point != out.Point || e.elapsed != out.Res.Elapsed || e.verified != out.Res.Verified {
		t.Errorf("head %+v disagrees with the full outcome %+v", e, out)
	}
	if out.Res.Elapsed <= 0 || !out.Res.Verified || out.Res.Stats == nil {
		t.Errorf("loaded result incomplete: %+v", out.Res)
	}
	if err := d.Store(out); err != nil {
		t.Fatal(err)
	}
	if again, err := os.ReadFile(path); err != nil || !bytes.Equal(again, raw) {
		t.Errorf("re-storing the loaded outcome changed the entry (err %v)", err)
	}
}

// FuzzDiskStoreLoad puts arbitrary bytes where an entry lives. Either
// read entry point may refuse them as ErrCorrupt or serve an answer to
// the question the address names; neither may panic, answer for another
// spec, or be laxer than the other about the head. The seed corpus
// under testdata/fuzz is entryV1, truncations of it, and every row of
// corruptions.
func FuzzDiskStoreLoad(f *testing.F) {
	d, err := NewDiskStore(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	spec := run.Baseline("radix", 4, 1.0/4096, 1, true)
	hash := spec.Hash()
	path := d.entryPath(hash)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		e, found, herr := d.read(hash)
		if !found {
			t.Fatal("head: an existing file reported as a clean miss")
		}
		if herr != nil && !errors.Is(herr, ErrCorrupt) {
			t.Fatalf("head: err = %v, want ErrCorrupt", herr)
		}
		if herr == nil && e.spec.Hash() != hash {
			t.Fatalf("head: served %v at the address of %v", e.spec, spec)
		}
		out, found, ferr := d.Load(spec)
		if !found {
			t.Fatal("full: an existing file reported as a clean miss")
		}
		if ferr != nil && !errors.Is(ferr, ErrCorrupt) {
			t.Fatalf("full: err = %v, want ErrCorrupt", ferr)
		}
		if herr != nil && ferr == nil {
			t.Fatalf("full read served what the head-only read refused: %v", herr)
		}
		if ferr == nil && (out.Spec != e.spec || out.Point != e.point || out.Res.Elapsed != e.elapsed || out.Res.Verified != e.verified) {
			t.Fatalf("full outcome %+v disagrees with the head %+v", out, e)
		}
	})
}

// TestDiskStoreCrashArtifacts simulates a writer that died mid-write:
// leftover temp files must never be served, and the final rename is the
// only visibility point.
func TestDiskStoreCrashArtifacts(t *testing.T) {
	d, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	out := testOutcome(t)
	hash := out.Spec.Hash()
	shard := filepath.Dir(d.entryPath(hash))
	if err := os.MkdirAll(shard, 0o755); err != nil {
		t.Fatal(err)
	}
	// A torn temp file from a crashed writer sits in the shard.
	if err := os.WriteFile(filepath.Join(shard, "tmp-dead"), []byte(`{"version":1,"half`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, found, err := d.Load(out.Spec); found || err != nil {
		t.Fatalf("Load with only a torn temp present: found=%v err=%v, want miss", found, err)
	}
	if err := d.Store(out); err != nil {
		t.Fatal(err)
	}
	if _, found, err := d.Load(out.Spec); !found || err != nil {
		t.Fatalf("Load after Store: found=%v err=%v", found, err)
	}
}

// TestDiskStoreConcurrent hammers one entry with concurrent writers and
// readers (run under -race in CI). Readers must only ever see a clean
// miss or a fully verified entry.
func TestDiskStoreConcurrent(t *testing.T) {
	d, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	out := testOutcome(t)
	want := string(outcomeBytes(t, out))

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 4; j++ {
				if err := d.Store(out); err != nil {
					errs <- err
					return
				}
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 8; j++ {
				got, found, err := d.Load(out.Spec)
				if err != nil {
					errs <- err
					return
				}
				if !found {
					continue
				}
				raw, merr := json.Marshal(payloadJSON{Spec: SpecToJSON(got.Spec), Point: got.Point, Result: got.Res})
				if merr != nil {
					errs <- merr
					return
				}
				if string(raw) != want {
					errs <- errors.New("reader observed a non-identical entry")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
