package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/run"
)

// testOutcome executes one real (tiny) baseline run to exercise the
// store with a fully populated result: Stats, histograms, summary.
func testOutcome(t *testing.T) run.Outcome {
	t.Helper()
	r := &run.Runner{Resolve: exp.ResolveApp}
	out := r.ExecBaseline(run.Baseline("radix", 4, 1.0/4096, 1, true))
	if out.Err != nil {
		t.Fatalf("baseline run failed: %v", out.Err)
	}
	return out
}

// outcomeJSON is the canonical comparison form of an outcome.
func outcomeJSON(out run.Outcome) ([]byte, error) {
	return json.Marshal(struct {
		Spec   SpecJSON
		Point  core.Point
		Result apps.Result
	}{SpecToJSON(out.Spec), out.Point, out.Res})
}

func outcomeBytes(t *testing.T, out run.Outcome) []byte {
	t.Helper()
	raw, err := outcomeJSON(out)
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

// frame is an object file split into its three parts.
type frame struct {
	h            frameHeader
	head, result []byte
}

func splitFrame(t testing.TB, raw []byte) frame {
	t.Helper()
	line, body, ok := bytes.Cut(raw, []byte{'\n'})
	if !ok {
		t.Fatal("entry has no header line")
	}
	var f frame
	if err := json.Unmarshal(line, &f.h); err != nil {
		t.Fatal(err)
	}
	f.head, f.result = body[:f.h.HeadLen], body[f.h.HeadLen:]
	return f
}

// bytes joins the parts under the header as it stands.
func (f frame) bytes(t testing.TB) []byte {
	t.Helper()
	line, err := json.Marshal(f.h)
	if err != nil {
		t.Fatal(err)
	}
	return append(append(append(line, '\n'), f.head...), f.result...)
}

// reseal rewrites the first occurrence of old in an entry's head, or
// else in its result, and recomputes the header's lengths and checksum:
// a writer's mistake or a careful edit, which only the checks behind the
// checksum can catch.
func reseal(t testing.TB, raw []byte, old, new string) []byte {
	t.Helper()
	f := splitFrame(t, raw)
	switch {
	case bytes.Contains(f.head, []byte(old)):
		f.head = bytes.Replace(f.head, []byte(old), []byte(new), 1)
	case bytes.Contains(f.result, []byte(old)):
		f.result = bytes.Replace(f.result, []byte(old), []byte(new), 1)
	default:
		t.Fatalf("entry has no %s to rewrite", old)
	}
	sum := sha256.Sum256(append(append([]byte(nil), f.head...), f.result...))
	f.h.Sum = hex.EncodeToString(sum[:])
	f.h.HeadLen, f.h.ResultLen = len(f.head), len(f.result)
	return f.bytes(t)
}

// corruption is one way an object file can be wrong.
type corruption struct {
	name string
	raw  []byte
}

// corruptions damages a pristine entry of testOutcome's spec once per
// check of the read, and more than once where the checks differ in what
// they would let through.
func corruptions(t testing.TB, pristine []byte) []corruption {
	t.Helper()
	f := splitFrame(t, pristine)
	header := func(edit func(*frameHeader)) []byte {
		c := f
		edit(&c.h)
		return c.bytes(t)
	}
	bodyAt := len(pristine) - len(f.head) - len(f.result)
	flip := func(at int) []byte {
		b := append([]byte(nil), pristine...)
		if b[at] == 'x' {
			b[at] = 'y'
		} else {
			b[at] = 'x'
		}
		return b
	}
	// A digit of the barrier count: deep in the result, which a
	// head-only read never looks at, and still valid JSON of the right
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
	v1, err := os.ReadFile(entryV1)
	if err != nil {
		t.Fatal(err)
	}
	return []corruption{
		{"truncated", pristine[:len(pristine)/2]},
		{"not-json", []byte("not json at all")},
		{"bit-flip", flip(bodyAt + len(f.head) + len(f.result)/2)},
		{"head-byte-flip", flip(bodyAt + len(f.head)/2)},
		{"digit-flip-in-result", digitFlip},
		{"version-bump", header(func(h *frameHeader) { h.Version = diskVersion + 1 })},
		{"v1-envelope", v1},
		{"wrong-address", header(func(h *frameHeader) { h.Hash = "0000" + h.Hash[4:] })},
		{"header-without-newline", bytes.Replace(pristine, []byte{'\n'}, []byte{' '}, 1)},
		{"header-only", pristine[:bodyAt-1]},
		{"lengths-overrun", header(func(h *frameHeader) { h.ResultLen++ })},
		{"lengths-short", header(func(h *frameHeader) { h.HeadLen-- })},
		// The lengths still add up to the file and the checksum still
		// covers it; only the head decoding shows the split is wrong.
		{"split-shifted", header(func(h *frameHeader) { h.HeadLen++; h.ResultLen-- })},
		{"trailing-bytes", append(append([]byte(nil), pristine...), '\n')},
		// Version, address, lengths and checksum all hold; only
		// re-hashing the stored spec shows the entry answers a different
		// question.
		{"spec-tampered-resummed", reseal(t, pristine, `"seed":1`, `"seed":2`)},
	}
}

// TestDiskStoreCorruption covers every check of the read on both read
// entry points: truncation, a header that is not one line, lengths that
// do not fit the file, damage under the checksum (in the head, and
// shallow and deep inside the result), a wrong stored hash and a
// re-sealed foreign spec all surface as ErrCorrupt (found, recompute),
// never as a wrong answer — whether or not the caller decodes the
// result. An entry of another format version is ErrStale, which is
// ErrCorrupt too.
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
				stale := c.name == "version-bump" || c.name == "v1-envelope"
				if errors.Is(err, ErrStale) != stale {
					t.Errorf("%s: err = %v, want ErrStale: %v", r.name, err, stale)
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

// TestDiskStoreUndecodableResult seals a result that is not an
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

// entryV1 is an object file of format version 1 (one JSON envelope):
// testOutcome's run, stored by the last DiskStore.Store that wrote it.
// It must never be misread, only recomputed.
const entryV1 = "testdata/entry-v1.json"

// entryV2 is testOutcome's run as the first version-2 DiskStore.Store
// framed it.
const entryV2 = "testdata/entry-v2.json"

// TestDiskStoreReadsEarlierEntries pins that changing how entries are
// read did not change which entries are readable: bytes written before
// are served, head and result, and storing what was loaded reproduces
// them.
func TestDiskStoreReadsEarlierEntries(t *testing.T) {
	raw, err := os.ReadFile(entryV2)
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

var updateSeeds = flag.Bool("update", false, "rewrite FuzzDiskStoreLoad's seed corpus from testdata/entry-v2.json")

// fuzzSeeds is FuzzDiskStoreLoad's seed corpus: entryV2, truncations of
// it in each part, a result that does not decode under a valid
// checksum, and every row of corruptions.
func fuzzSeeds(t testing.TB) []corruption {
	t.Helper()
	pristine, err := os.ReadFile(entryV2)
	if err != nil {
		t.Fatal(err)
	}
	f := splitFrame(t, pristine)
	bodyAt := len(pristine) - len(f.head) - len(f.result)
	seeds := []corruption{
		{"empty", []byte{}},
		{"pristine", pristine},
		{"truncated-in-envelope", pristine[:bodyAt/2]}, // inside the header line
		{"truncated-in-head", pristine[:bodyAt+len(f.head)/2]},
		{"truncated-last-byte", pristine[:len(pristine)-1]},
		{"undecodable-result-resummed", reseal(t, pristine, `"Procs":4`, `"Procs":"four"`)},
	}
	return append(seeds, corruptions(t, pristine)...)
}

// TestFuzzDiskStoreLoadSeeds keeps the committed seed corpus in the
// current entry format: every file under testdata/fuzz/FuzzDiskStoreLoad
// named after a seed holds that seed. After a format change, rewrite
// entry-v2.json's successor and run this test with -update.
func TestFuzzDiskStoreLoadSeeds(t *testing.T) {
	const dir = "testdata/fuzz/FuzzDiskStoreLoad"
	for _, c := range fuzzSeeds(t) {
		want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", c.raw)
		path := filepath.Join(dir, c.name)
		if *updateSeeds {
			if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != want {
			t.Errorf("%s is not the current seed (err %v); rerun with -update", path, err)
		}
	}
}

// FuzzDiskStoreLoad puts arbitrary bytes where an entry lives. Either
// read entry point may refuse them as ErrCorrupt or serve an answer to
// the question the address names; neither may panic, answer for another
// spec, or be laxer than the other about the head. The seed corpus
// under testdata/fuzz is fuzzSeeds (TestFuzzDiskStoreLoadSeeds).
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
				raw, merr := outcomeJSON(got)
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
