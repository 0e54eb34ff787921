package service

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/run"
	"repro/internal/splitc"
)

// Wire forms of the run-plan engine's types: lowercase, knob-by-name
// JSON for clients, with exact conversions to and from the canonical Go
// structs. The persistent store reuses SpecJSON so cache entries stay
// self-describing (DiskStore verifies a loaded entry's spec re-hashes
// to its address).

// SpecJSON is run.Spec on the wire.
type SpecJSON struct {
	App        string     `json:"app"`
	Procs      int        `json:"procs"`
	Scale      float64    `json:"scale"`
	Seed       int64      `json:"seed"`
	Knob       string     `json:"knob,omitempty"` // "", "o", "g", "L", "bw"
	Value      float64    `json:"value,omitempty"`
	Verify     bool       `json:"verify,omitempty"`
	CPUSpeedup float64    `json:"cpu_speedup,omitempty"`
	Profile    bool       `json:"profile,omitempty"`
	Fault      *FaultJSON `json:"fault,omitempty"`
	Coll       *CollJSON  `json:"coll,omitempty"`
}

// FaultJSON is run.FaultSpec on the wire.
type FaultJSON struct {
	DelayProc   int     `json:"delay_proc,omitempty"`
	DelayAtFrac float64 `json:"delay_at_frac,omitempty"`
	DelayUs     float64 `json:"delay_us,omitempty"`
	DropProb    float64 `json:"drop_prob,omitempty"`
	DupProb     float64 `json:"dup_prob,omitempty"`
	Reliable    bool    `json:"reliable,omitempty"`
}

// CollJSON is splitc.Collectives on the wire.
type CollJSON struct {
	Barrier   string `json:"barrier,omitempty"`
	Broadcast string `json:"broadcast,omitempty"`
	AllReduce string `json:"all_reduce,omitempty"`
}

// Spec converts the wire form to the canonical spec. What the daemon
// will run is run.Runner.Check's to decide (Server.admit).
func (w SpecJSON) Spec() (run.Spec, error) {
	if w.App == "" {
		return run.Spec{}, fmt.Errorf("service: spec missing app")
	}
	k, err := run.ParseKnob(w.Knob)
	if err != nil {
		return run.Spec{}, err
	}
	s := run.Spec{
		App: w.App, Procs: w.Procs, Scale: w.Scale, Seed: w.Seed,
		Knob: k, Value: w.Value, Verify: w.Verify,
		CPUSpeedup: w.CPUSpeedup, Profile: w.Profile,
	}
	if f := w.Fault; f != nil {
		s.Fault = run.FaultSpec{
			DelayProc: f.DelayProc, DelayAtFrac: f.DelayAtFrac, DelayUs: f.DelayUs,
			DropProb: f.DropProb, DupProb: f.DupProb, Reliable: f.Reliable,
		}
	}
	if c := w.Coll; c != nil {
		s.Coll = splitc.Collectives{Barrier: c.Barrier, Broadcast: c.Broadcast, AllReduce: c.AllReduce}
	}
	return s, nil
}

// KnobName renders a knob in the short wire vocabulary ParseKnob reads.
func KnobName(k core.Knob) string {
	switch k {
	case core.KnobO:
		return "o"
	case core.KnobG:
		return "g"
	case core.KnobL:
		return "L"
	case core.KnobBW:
		return "bw"
	}
	return ""
}

// SpecToJSON converts a canonical spec to the wire form.
func SpecToJSON(s run.Spec) SpecJSON {
	w := SpecJSON{
		App: s.App, Procs: s.Procs, Scale: s.Scale, Seed: s.Seed,
		Knob: KnobName(s.Knob), Value: s.Value, Verify: s.Verify,
		CPUSpeedup: s.CPUSpeedup, Profile: s.Profile,
	}
	if s.Fault != (run.FaultSpec{}) {
		w.Fault = &FaultJSON{
			DelayProc: s.Fault.DelayProc, DelayAtFrac: s.Fault.DelayAtFrac, DelayUs: s.Fault.DelayUs,
			DropProb: s.Fault.DropProb, DupProb: s.Fault.DupProb, Reliable: s.Fault.Reliable,
		}
	}
	if !s.Coll.IsZero() {
		w.Coll = &CollJSON{Barrier: s.Coll.Barrier, Broadcast: s.Coll.Broadcast, AllReduce: s.Coll.AllReduce}
	}
	return w
}

// PointJSON is core.Point on the wire.
type PointJSON struct {
	Value      float64 `json:"value"`
	ElapsedNs  int64   `json:"elapsed_ns"`
	Slowdown   float64 `json:"slowdown"`
	Livelocked bool    `json:"livelocked,omitempty"`
}

func pointToJSON(p core.Point) PointJSON {
	return PointJSON{Value: p.Value, ElapsedNs: int64(p.Elapsed), Slowdown: p.Slowdown, Livelocked: p.Livelocked}
}

// Resolution sources, reported per run and aggregated in /v1/stats.
const (
	SourceDisk      = "disk"      // served from the persistent store
	SourceComputed  = "computed"  // executed on the shared worker pool
	SourceCoalesced = "coalesced" // joined an identical in-flight run
)

// RunRequest asks for one spec. Minimal omits the full result payload
// from the response (the point and summary numbers remain).
type RunRequest struct {
	SpecJSON
	Minimal bool `json:"minimal,omitempty"`
}

// RunResponse reports one resolved spec. Result stays the last field: a
// full disk hit appends the stored result bytes after the rest
// (Server.writeForwarded).
type RunResponse struct {
	Spec      SpecJSON     `json:"spec"`
	Hash      string       `json:"hash"`
	Source    string       `json:"source"`
	Cached    bool         `json:"cached"`
	WallUs    int64        `json:"wall_us"`
	Point     PointJSON    `json:"point"`
	ElapsedNs int64        `json:"elapsed_ns"`
	Verified  bool         `json:"verified,omitempty"`
	Result    *apps.Result `json:"result,omitempty"`
}

// SweepRequest asks for one app × knob × values matrix (the paper's
// fig5–fig8 shape). The baseline run is implied, and every point is a
// simulation or a verified cache hit of one.
type SweepRequest struct {
	App        string    `json:"app"`
	Procs      int       `json:"procs"`
	Scale      float64   `json:"scale"`
	Seed       int64     `json:"seed"`
	Knob       string    `json:"knob"`
	Values     []float64 `json:"values"`
	Verify     bool      `json:"verify,omitempty"`
	CPUSpeedup float64   `json:"cpu_speedup,omitempty"`
	Coll       *CollJSON `json:"coll,omitempty"`
}

// SweepPoint is one resolved design point of a sweep.
type SweepPoint struct {
	PointJSON
	Hash   string `json:"hash"`
	Source string `json:"source"`
}

// SweepResponse reports a completed sweep.
type SweepResponse struct {
	App      string       `json:"app"`
	Knob     string       `json:"knob"`
	Baseline PointJSON    `json:"baseline"`
	BaseHash string       `json:"baseline_hash"`
	Points   []SweepPoint `json:"points"`
	Cache    CacheCounts  `json:"cache"`
}

// ExperimentRequest asks for one rendered paper artifact.
type ExperimentRequest struct {
	ID      string      `json:"id"`
	Options OptionsJSON `json:"options"`
}

// OptionsJSON is exp.Options on the wire (Jobs is absent: the daemon's
// shared pool owns all concurrency).
type OptionsJSON struct {
	Procs  int      `json:"procs,omitempty"`
	Scale  float64  `json:"scale,omitempty"`
	Seed   int64    `json:"seed,omitempty"`
	Apps   []string `json:"apps,omitempty"`
	Quick  bool     `json:"quick,omitempty"`
	Verify bool     `json:"verify,omitempty"`
}

func (w OptionsJSON) options() exp.Options {
	return exp.Options{
		Procs: w.Procs, Scale: w.Scale, Seed: w.Seed,
		Apps: w.Apps, Quick: w.Quick, Verify: w.Verify,
	}
}

// TableJSON is exp.Table on the wire.
type TableJSON struct {
	ID      string     `json:"id"`
	Title   string     `json:"title"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	Notes   []string   `json:"notes,omitempty"`
}

// ExperimentResponse reports a rendered artifact. Text is byte-identical
// to cmd/repro's offline output for the same options.
type ExperimentResponse struct {
	ID    string      `json:"id"`
	Table TableJSON   `json:"table"`
	Text  string      `json:"text"`
	CSV   string      `json:"csv"`
	Cache CacheCounts `json:"cache"`
}

// CacheCounts reports how one request's runs resolved.
type CacheCounts struct {
	Total     int `json:"total"`
	DiskHits  int `json:"disk_hits"`
	Computed  int `json:"computed"`
	Coalesced int `json:"coalesced"`
}

// PlanEvent is one progress tick of a streaming sweep or experiment.
type PlanEvent struct {
	Done   int    `json:"done"`
	Total  int    `json:"total"`
	Spec   string `json:"spec"`
	Hash   string `json:"hash"`
	Source string `json:"source"`
	WallUs int64  `json:"wall_us"`
	Err    string `json:"error,omitempty"`
}

// ErrorResponse is the JSON error envelope.
type ErrorResponse struct {
	Error string `json:"error"`
}
