// Package suite assembles the paper's ten-application benchmark suite in
// Table 4 order, and resolves every application name the harness runs:
// the paper's ten and the weak-scaling kernels (scalekern).
package suite

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/apps/barnes"
	"repro/internal/apps/connect"
	"repro/internal/apps/em3d"
	"repro/internal/apps/murphi"
	"repro/internal/apps/nowsort"
	"repro/internal/apps/pray"
	"repro/internal/apps/radb"
	"repro/internal/apps/radix"
	"repro/internal/apps/sample"
	"repro/internal/apps/scalekern"
)

// All returns the full benchmark suite in the paper's Table 4 order.
func All() []apps.App {
	return []apps.App{
		radix.New(),
		em3d.NewWrite(),
		em3d.NewRead(),
		sample.New(),
		barnes.New(),
		pray.New(),
		connect.New(),
		murphi.New(),
		nowsort.New(),
		radb.New(),
	}
}

// Names lists the suite's application names in order.
func Names() []string {
	var ns []string
	for _, a := range All() {
		ns = append(ns, a.Name())
	}
	return ns
}

// ByName finds an application by its short name: a paper application,
// then a weak-scaling kernel. It is the lookup every run.Runner uses, so
// scale specs replay through the same plan and store as the paper's.
func ByName(name string) (apps.App, error) {
	for _, a := range append(All(), scalekern.All()...) {
		if a.Name() == name {
			return a, nil
		}
	}
	return nil, fmt.Errorf("unknown application %q (have %v and the kernels %v)",
		name, Names(), scalekern.Names())
}
