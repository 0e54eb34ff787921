package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
// Files includes in-package _test.go files; external test packages
// (package foo_test) load as their own Package with the same Dir.
type Package struct {
	// Path is the import path analyzers scope on. For external test
	// packages it carries a "_test" suffix.
	Path  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// listed is the part of a `go list -json` record the loader reads.
type listed struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	ImportMap  map[string]string
	ForTest    string
	DepOnly    bool
	Error      *struct{ Err string }
}

// Load type-checks the packages matched by patterns (go list patterns
// such as "./..." or "./internal/sim", relative to dir), test files
// included. The go command selects the files and compiles every
// dependency; Load parses the matched packages from source and
// resolves their imports through the compiler's export data. A
// "/..." pattern also covers each module nested below it. Packages are
// returned in deterministic (import path) order.
func Load(dir string, patterns ...string) ([]*Package, error) {
	mods, err := nestedModules(dir, patterns)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	pkgs, err := loadModule(fset, dir, patterns)
	if err != nil {
		return nil, err
	}
	for _, m := range mods {
		got, err := loadModule(fset, m, []string{"./..."})
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, got...)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// LoadDir type-checks the single directory dir as a package with the
// given import path, without requiring a go.mod. It exists for
// analysistest fixtures under testdata/src, whose directory layout
// encodes the import path the analyzers scope on; fixtures import only
// the standard library.
func LoadDir(dir, importPath string) (*Package, error) {
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	files, err := parseFiles(fset, dir, append(bp.GoFiles, bp.TestGoFiles...))
	if err != nil {
		return nil, err
	}
	return check(fset, importPath, dir, files, importer.ForCompiler(fset, "gc", nil))
}

// nestedModules returns the directories below each "/..." pattern's
// root that hold a go.mod of their own, skipping the directories the
// go command ignores (testdata, and names starting with "." or "_").
func nestedModules(dir string, patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var mods []string
	for _, p := range patterns {
		base, ok := strings.CutSuffix(p, "/...")
		if !ok {
			continue
		}
		start := filepath.Join(dir, base)
		err := filepath.WalkDir(start, func(path string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() || path == start {
				return err
			}
			if name := d.Name(); name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil && !seen[path] {
				seen[path] = true
				mods = append(mods, path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return mods, nil
}

// loadModule lists patterns in the module containing dir and checks
// each matched package. A package with in-package tests loads as its
// test variant "p [p.test]", whose files include the _test.go files;
// an external test package "p_test [p.test]" imports that variant
// through its ImportMap, so export_test.go declarations resolve.
func loadModule(fset *token.FileSet, dir string, patterns []string) ([]*Package, error) {
	recs, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	export := map[string]string{}
	matched := map[string]*listed{}
	for i := range recs {
		r := &recs[i]
		// Records come in dependency order, so the first error is the
		// package that does not build, not one that imports it.
		if r.Error != nil {
			return nil, fmt.Errorf("%s: %s", r.ImportPath, strings.TrimSpace(r.Error.Err))
		}
		export[r.ImportPath] = r.Export
		// Dependencies (test variants of dependencies included) and
		// the generated p.test mains are not analyzed.
		if r.DepOnly || strings.HasSuffix(r.ImportPath, ".test") {
			continue
		}
		path, _, _ := strings.Cut(r.ImportPath, " ")
		if prev := matched[path]; prev == nil || r.ForTest != "" {
			matched[path] = r
		}
	}
	paths := make([]string, 0, len(matched))
	for path := range matched {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	lookup := func(importMap map[string]string) importer.Lookup {
		return func(ip string) (io.ReadCloser, error) {
			if m, ok := importMap[ip]; ok {
				ip = m
			}
			if export[ip] == "" {
				return nil, fmt.Errorf("no export data for %q", ip)
			}
			return os.Open(export[ip])
		}
	}
	// Packages whose imports all resolve to plain packages share one
	// importer, so each dependency's export data is decoded once.
	shared := importer.ForCompiler(fset, "gc", lookup(nil))
	var pkgs []*Package
	for _, path := range paths {
		r := matched[path]
		files, err := parseFiles(fset, r.Dir, r.GoFiles)
		if err != nil {
			return nil, err
		}
		imp := shared
		if len(r.ImportMap) > 0 {
			imp = importer.ForCompiler(fset, "gc", lookup(r.ImportMap))
		}
		pkg, err := check(fset, path, r.Dir, files, imp)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// goList runs `go list -export -deps -test` over patterns in dir.
func goList(dir string, patterns []string) ([]listed, error) {
	args := append([]string{"list", "-e", "-export", "-deps", "-test",
		"-json=ImportPath,Dir,GoFiles,Export,ImportMap,ForTest,DepOnly,Error"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var recs []listed
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var r listed
		if err := dec.Decode(&r); err != nil {
			return nil, fmt.Errorf("go list in %s: %w", dir, err)
		}
		recs = append(recs, r)
	}
	return recs, nil
}

func parseFiles(fset *token.FileSet, dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

func check(fset *token.FileSet, path, dir string, files []*ast.File, imp types.Importer) (*Package, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: imp, Sizes: types.SizesFor("gc", build.Default.GOARCH)}
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	return &Package{Path: path, Dir: dir, Fset: fset, Files: files, Pkg: pkg, Info: info}, nil
}
