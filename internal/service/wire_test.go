package service

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"testing"

	"repro/internal/logp"
)

// FuzzWireSpec feeds arbitrary bytes through /v1/run's admission path —
// the strict decode into RunRequest, SpecJSON.Spec, Server.admit — and
// holds what gets through to the wire's contract: nothing panics, an
// admitted spec re-encodes to a request for the same cache address, and
// the machine it would run on validates. testdata/fuzz/FuzzWireSpec
// holds the named cases: a minimal request, a negative CPU speedup, each
// knob value that describes no machine, an undeclared field and the
// removed depgraph bit.
func FuzzWireSpec(f *testing.F) {
	s, err := New(Config{CacheDir: f.TempDir(), Workers: 1})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(s.Close)
	f.Fuzz(func(t *testing.T, body []byte) {
		var req RunRequest
		r := httptest.NewRequest("POST", "/v1/run", bytes.NewReader(body))
		if decodeBody(httptest.NewRecorder(), r, &req) != nil {
			return
		}
		spec, err := req.SpecJSON.Spec()
		if err != nil || s.admit("run", spec) != nil {
			return
		}
		wire, err := json.Marshal(SpecToJSON(spec))
		if err != nil {
			t.Fatalf("admitted %+v does not encode: %v", spec, err)
		}
		var back SpecJSON
		if err := json.Unmarshal(wire, &back); err != nil {
			t.Fatalf("%s does not decode: %v", wire, err)
		}
		if again, err := back.Spec(); err != nil || again.Hash() != spec.Hash() {
			t.Errorf("admitted %+v re-encodes as %s: %+v, %v", spec, wire, again, err)
		}
		if err := spec.Knob.Apply(logp.NOW(), spec.Value).Validate(); err != nil {
			t.Errorf("admitted %+v runs on no machine: %v", spec, err)
		}
	})
}
