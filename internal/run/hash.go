package run

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
)

// hashVersion is the canonical-encoding version baked into every hash.
// Bump it whenever Spec (or an embedded type) gains a field or changes
// the meaning of an existing one: old on-disk cache entries then stop
// matching instead of silently aliasing different runs. The golden
// vectors in hash_test.go pin the encoding release-to-release.
const hashVersion = "repro/run.Spec/v3"

// Hash is the canonical, process-stable content address of the run the
// spec describes. Equal specs (after normalization) hash equally in
// every process, on every platform, across releases — it is the key of
// the service's persistent result cache, so its stability is a
// compatibility promise, enforced by golden-vector tests.
//
// The hash covers every Spec field (including the fault scenario and
// the collective selection) but not the machine: every run starts from
// the NOW, exactly as in the in-memory Store.
func (s Spec) Hash() string {
	sum := sha256.Sum256([]byte(s.canonical()))
	return hex.EncodeToString(sum[:])
}

// canonical renders the normalized spec as a versioned, line-oriented
// encoding with exact (shortest round-trip) float formatting. Every
// field is rendered unconditionally: omitting zero values would let a
// future default change alias two historically distinct encodings. The
// free-form strings (the app and the collective names) are quoted, so
// an embedded newline cannot forge the next field's line.
func (s Spec) canonical() string {
	s = s.norm()
	var b strings.Builder
	b.WriteString(hashVersion)
	wr := func(k, v string) {
		b.WriteByte('\n')
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(v)
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	var q [64]byte
	quoted := func(k, v string) {
		wr(k, "")
		b.Write(strconv.AppendQuote(q[:0], v))
	}
	quoted("app", s.App)
	wr("procs", strconv.Itoa(s.Procs))
	wr("scale", f(s.Scale))
	wr("seed", strconv.FormatInt(s.Seed, 10))
	wr("knob", strconv.Itoa(int(s.Knob)))
	wr("value", f(s.Value))
	wr("verify", strconv.FormatBool(s.Verify))
	wr("cpu", f(s.CPUSpeedup))
	wr("profile", strconv.FormatBool(s.Profile))
	wr("fault.delayproc", strconv.Itoa(s.Fault.DelayProc))
	wr("fault.delayatfrac", f(s.Fault.DelayAtFrac))
	wr("fault.delayus", f(s.Fault.DelayUs))
	wr("fault.dropprob", f(s.Fault.DropProb))
	wr("fault.dupprob", f(s.Fault.DupProb))
	wr("fault.reliable", strconv.FormatBool(s.Fault.Reliable))
	quoted("coll.barrier", s.Coll.Barrier)
	quoted("coll.broadcast", s.Coll.Broadcast)
	quoted("coll.allreduce", s.Coll.AllReduce)
	return b.String()
}

// ParseKnob maps a wire name to a knob, accepting both the short forms
// the service API uses ("o", "g", "L", "bw") and Knob.String()'s long
// names. The empty string and "baseline" mean no knob.
func ParseKnob(name string) (core.Knob, error) {
	switch strings.ToLower(name) {
	case "", "baseline", "none":
		return core.KnobNone, nil
	case "o", "overhead":
		return core.KnobO, nil
	case "g", "gap":
		return core.KnobG, nil
	case "l", "latency":
		return core.KnobL, nil
	case "bw", "bandwidth", "bulk":
		return core.KnobBW, nil
	}
	return core.KnobNone, fmt.Errorf("run: unknown knob %q (want o, g, L, or bw)", name)
}
