package run

// Plan is a deduplicated, ordered set of Specs plus the baseline→sweep
// dependencies the Runner needs to schedule them. The experiment
// registry (exp.PlanFor) adds every selected experiment's runs to one
// Plan, so shared runs (Fig 5b and Table 5, Fig 6 and Table 6, every
// baseline) execute exactly once.
type Plan struct {
	order []Spec
	index map[Spec]int
	// dep maps a swept spec to the baseline spec providing its slowdown
	// denominator and livelock bound.
	dep map[Spec]Spec
	// adds counts every Add call, including duplicates, so callers can
	// report how much the plan deduplicated.
	adds int
}

// NewPlan returns an empty plan.
func NewPlan() *Plan {
	return &Plan{index: map[Spec]int{}, dep: map[Spec]Spec{}}
}

// add inserts a normalized spec, deduplicating. Returns the canonical
// spec (the map key callers should use against the Store).
func (p *Plan) add(s Spec) Spec {
	s = s.norm()
	p.adds++
	if _, ok := p.index[s]; !ok {
		p.index[s] = len(p.order)
		p.order = append(p.order, s)
	}
	return s
}

// AddBaseline declares a run on the unmodified machine.
func (p *Plan) AddBaseline(app string, procs int, scale float64, seed int64, verify bool) Spec {
	return p.add(Baseline(app, procs, scale, seed, verify))
}

// AddSweep declares a run at one design point, automatically declaring
// the baseline run it depends on (same app/procs/scale/seed, no knob).
// baselineVerify is the self-check choice for that baseline; the swept
// run itself never verifies.
func (p *Plan) AddSweep(s Spec, baselineVerify bool) Spec {
	s = s.norm()
	if s.IsBaseline() {
		return p.add(s)
	}
	b := p.add(s.BaselineSpec(baselineVerify))
	s = p.add(s)
	p.dep[s] = b
	return s
}

// Size is the number of distinct runs in the plan.
func (p *Plan) Size() int { return len(p.order) }

// Adds is the total number of Add calls, including duplicates; Adds -
// Size is the number of runs the plan deduplicated away.
func (p *Plan) Adds() int { return p.adds }

// Specs returns the distinct runs in insertion order.
func (p *Plan) Specs() []Spec {
	out := make([]Spec, len(p.order))
	copy(out, p.order)
	return out
}

// BaselineOf returns the baseline dependency of a swept spec.
func (p *Plan) BaselineOf(s Spec) (Spec, bool) {
	b, ok := p.dep[s.norm()]
	return b, ok
}
