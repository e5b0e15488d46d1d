package xoarlint

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// The loader type-checks a module for real. Every module package is checked
// from source exactly once, in dependency order: go/types pulls each import
// through the loader as the checker reaches it, and every importer receives
// the same *types.Package, so object identity holds across packages — the
// *types.Func a call site in netdrv resolves to is the object Info.Defs
// recorded in ring. The standard library comes from compiler export data:
// one `go list -export -deps` over every stdlib path the module's files
// import (test files included) yields the export files, which a single gc
// importer reads.
//
// A package's in-package _test.go files are checked into the same
// *types.Package once every package proper is complete: importers see the
// package proper (two packages' in-package tests may import each other's
// package), and an external _test package, checked right after, sees what
// an export_test.go file adds.

// LoadModule loads and type-checks every package of the module rooted at (or
// above) dir. Vendored trees, testdata and dot-directories are skipped. A
// type error anywhere fails the load: the passes and the artifacts they
// generate are only sound over a module that compiles.
func LoadModule(dir string) ([]*Package, error) {
	l, err := newLoader(dir)
	if err != nil {
		return nil, err
	}
	for _, path := range l.paths {
		if _, err := l.lib(path); err != nil {
			return nil, err
		}
	}
	var pkgs []*Package
	for _, path := range l.paths {
		for _, p := range l.units[path] {
			if p.Types == nil {
				l.check(p, p.Files) // the external test package
			} else if tests := filesOf(p, true); len(tests) > 0 {
				l.check(p, tests)
			}
			if len(p.TypeErrors) > 0 {
				return nil, fmt.Errorf("xoarlint: %d type error(s) in %s, first: %v", len(p.TypeErrors), p.Path, p.TypeErrors[0])
			}
			pkgs = append(pkgs, p)
		}
	}
	return pkgs, nil
}

// loadDir loads the package units in a single directory under the given
// import path. The path override lets tests present synthetic sources as any
// package identity ("xoar/internal/hv") without living in the module tree.
// Imports of module paths resolve against the module enclosing the working
// directory, whose packages are checked once per process, on first import,
// and shared by every loadDir call. Type errors are kept in
// Package.TypeErrors, not returned.
func loadDir(dir, importPath string) ([]*Package, error) {
	shared.Lock()
	defer shared.Unlock()
	if shared.l == nil {
		l, err := newLoader(".")
		if err != nil {
			return nil, err
		}
		shared.l = l
	}
	units, err := shared.l.parseDir(dir, importPath)
	if err != nil {
		return nil, err
	}
	if err := shared.l.listStd(importsOf(units)); err != nil {
		return nil, err
	}
	for _, p := range units {
		shared.l.check(p, p.Files)
	}
	return units, nil
}

// shared is the loader loadDir resolves module imports with.
var shared struct {
	sync.Mutex
	l *loader
}

// loader holds one module's parsed packages and checks them on demand.
type loader struct {
	root, modName string
	fset          *token.FileSet
	paths         []string              // module import paths in walk order
	units         map[string][]*Package // by import path, sorted by package name
	checked       map[string]bool       // package proper checked; false while in progress
	exports       map[string]string     // stdlib import path -> export data file
	std           types.Importer
}

func newLoader(dir string) (*loader, error) {
	root, modName, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	l := &loader{
		root:    root,
		modName: modName,
		fset:    token.NewFileSet(),
		units:   map[string][]*Package{},
		checked: map[string]bool{},
		exports: map[string]string{},
	}
	l.std = importer.ForCompiler(l.fset, "gc", l.openExport)
	var imports []string
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor" || name == "node_modules") {
			return filepath.SkipDir
		}
		ip := importPathFor(root, modName, path)
		units, err := l.parseDir(path, ip)
		if err != nil || len(units) == 0 {
			return err
		}
		l.units[ip] = units
		l.paths = append(l.paths, ip)
		imports = append(imports, importsOf(units)...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return l, l.listStd(imports)
}

// findModule locates go.mod upward from dir and returns the module root and
// module name.
func findModule(dir string) (root, name string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; d = filepath.Dir(d) {
		data, rerr := os.ReadFile(filepath.Join(d, "go.mod"))
		if rerr == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("xoarlint: %s/go.mod has no module directive", d)
		}
		if filepath.Dir(d) == d {
			return "", "", fmt.Errorf("xoarlint: no go.mod found above %s", dir)
		}
	}
}

func importPathFor(root, modName, dir string) string {
	rel, err := filepath.Rel(root, dir)
	if err != nil || rel == "." {
		return modName
	}
	return modName + "/" + filepath.ToSlash(rel)
}

// parseDir parses the .go files of one directory into unchecked units, one
// per package name: the package proper with its in-package test files, and
// the external _test package.
func (l *loader) parseDir(dir, path string) ([]*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	byName := map[string]*Package{}
	var units []*Package
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		fpath := filepath.Join(dir, e.Name())
		src, err := os.ReadFile(fpath)
		if err != nil {
			return nil, err
		}
		f, err := parser.ParseFile(l.fset, fpath, src, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("xoarlint: %w", err)
		}
		p := byName[f.Name.Name]
		if p == nil {
			p = &Package{Name: f.Name.Name, Path: path, Dir: dir, Fset: l.fset,
				Test: map[*ast.File]bool{}, Src: map[string][]byte{}}
			byName[p.Name] = p
			units = append(units, p)
		}
		p.Files = append(p.Files, f)
		p.Src[fpath] = src
		p.Test[f] = strings.HasSuffix(e.Name(), "_test.go")
	}
	sort.Slice(units, func(i, j int) bool { return units[i].Name < units[j].Name })
	return units, nil
}

func importsOf(units []*Package) []string {
	var out []string
	for _, p := range units {
		for _, f := range p.Files {
			for _, imp := range f.Imports {
				out = append(out, strings.Trim(imp.Path.Value, `"`))
			}
		}
	}
	return out
}

func filesOf(p *Package, test bool) []*ast.File {
	var out []*ast.File
	for _, f := range p.Files {
		if p.Test[f] == test {
			out = append(out, f)
		}
	}
	return out
}

func (l *loader) inModule(path string) bool {
	return path == l.modName || strings.HasPrefix(path, l.modName+"/")
}

// listStd makes export data available for the stdlib paths among imports,
// and everything they depend on, with one go list call. Paths already listed
// are skipped, so after the module load only a loadDir source importing a
// package the module never does costs another call.
func (l *loader) listStd(imports []string) error {
	seen := map[string]bool{}
	var args []string
	for _, path := range imports {
		if path == "unsafe" || path == "C" || l.inModule(path) || seen[path] || l.exports[path] != "" {
			continue
		}
		seen[path] = true
		args = append(args, path)
	}
	if len(args) == 0 {
		return nil
	}
	sort.Strings(args)
	cmd := exec.Command("go", append([]string{"list", "-export", "-deps", "-f", "{{.ImportPath}}\t{{.Export}}", "--"}, args...)...)
	cmd.Dir = l.root
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("xoarlint: go list -export: %v\n%s", err, stderr.Bytes())
	}
	for _, line := range strings.Split(string(out), "\n") {
		if path, file, ok := strings.Cut(line, "\t"); ok && file != "" {
			l.exports[path] = file
		}
	}
	return nil
}

func (l *loader) openExport(path string) (io.ReadCloser, error) {
	file, ok := l.exports[path]
	if !ok {
		return nil, fmt.Errorf("xoarlint: no export data for %q", path)
	}
	return os.Open(file)
}

// Import satisfies types.Importer: module paths are checked from source,
// once, and everything else is read from export data.
func (l *loader) Import(path string) (*types.Package, error) {
	if !l.inModule(path) {
		return l.std.Import(path)
	}
	p, err := l.lib(path)
	if err != nil {
		return nil, err
	}
	return p.Types, nil
}

// lib returns the package proper of a module import path, checked from its
// non-test files.
func (l *loader) lib(path string) (*Package, error) {
	units := l.units[path]
	if len(units) == 0 || strings.HasSuffix(units[0].Name, "_test") {
		return nil, fmt.Errorf("xoarlint: package %s not found in module %s", path, l.modName)
	}
	p := units[0]
	switch done, seen := l.checked[path]; {
	case seen && !done:
		return nil, fmt.Errorf("xoarlint: import cycle through %s", path)
	case !seen:
		l.checked[path] = false
		l.check(p, filesOf(p, false))
		l.checked[path] = true
	}
	return p, nil
}

// check type-checks files into p. The first call creates p's package; a
// later call adds files to it, which is how go/types checks a package
// incrementally, so a package proper and its in-package tests share objects
// and one Info.
func (l *loader) check(p *Package, files []*ast.File) {
	if p.Types == nil {
		// An external test package gets its own path, as the go tool gives
		// it, so it can import the package under test.
		path := p.Path
		if strings.HasSuffix(p.Name, "_test") {
			path += "_test"
		}
		p.Types = types.NewPackage(path, p.Name)
		p.Info = &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
	}
	conf := &types.Config{
		Importer: l,
		Error:    func(err error) { p.TypeErrors = append(p.TypeErrors, err) },
	}
	_ = types.NewChecker(conf, l.fset, p.Types, p.Info).Files(files)
}
