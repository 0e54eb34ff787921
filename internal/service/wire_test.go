package service

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"testing"

	"repro/internal/apps"
	"repro/internal/logp"
	"repro/internal/sim"
)

// FuzzWireSpec feeds arbitrary bytes through /v1/run's admission path —
// the strict decode into RunRequest, SpecJSON.Spec, Server.admit — and
// holds what gets through to the wire's contract: nothing panics, an
// admitted spec re-encodes to a request for the same cache address, the
// machine it would run on validates, and its configuration builds a
// world. testdata/fuzz/FuzzWireSpec holds the named cases: a minimal
// request, a negative CPU speedup, each knob value that describes no
// machine, an undeclared field, the removed depgraph bit, and each spec
// admission once let through to a worker that refused or misread it.
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
		machine := spec.Knob.Apply(logp.NOW(), spec.Value)
		if err := machine.Validate(); err != nil {
			t.Errorf("admitted %+v runs on no machine: %v", spec, err)
		}
		// A world's memory grows with its processors; past a small
		// cluster the configuration rules are the same.
		if spec.Procs <= 64 {
			cfg := spec.Fault.Wire(spec.Config(machine), sim.Millisecond)
			if _, err := apps.NewWorld(cfg); err != nil {
				t.Errorf("admitted %+v builds no world: %v", spec, err)
			}
		}
	})
}
