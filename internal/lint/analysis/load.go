package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	// PkgPath is the package's import path. For module packages it is the
	// real path ("mkos/internal/noise"); corpus loads pick their own.
	PkgPath string
	// Dir is the directory the files came from.
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages. One Loader shares a FileSet
// across every package it loads, and it is itself the importer for
// module-local (and registered corpus) import paths: each such package
// is parsed and type-checked exactly once, and every importer sees the
// same *types.Package. That identity is what makes cross-package facts
// sound — an object fact exported while analyzing the defining package
// is found again when an importing package's pass resolves the same
// types.Object. Stdlib and other external paths fall through to the
// go/importer source importer.
type Loader struct {
	Fset *token.FileSet
	// IncludeTests makes the loader keep _test.go files. simlint ships
	// with it off: the determinism contract binds shipped simulation
	// code, while tests legitimately measure wall time.
	IncludeTests bool

	std  types.Importer      // stdlib / out-of-module fallthrough
	pkgs map[string]*Package // import path -> the one loaded instance

	modRoot string // module root directory ("" until LoadModule)
	modPath string // module path from go.mod
}

// NewLoader returns a loader with a fresh FileSet and source importer.
func NewLoader() *Loader {
	fset := token.NewFileSet()
	return &Loader{
		Fset: fset,
		std:  importer.ForCompiler(fset, "source", nil),
		pkgs: make(map[string]*Package),
	}
}

// Import implements types.Importer. Already-loaded packages (module
// packages and corpus packages registered by LoadDir) resolve to their
// single shared instance; paths under the module load on demand through
// LoadDir; everything else goes to the source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if p, ok := l.pkgs[path]; ok {
		if p.Types == nil {
			return nil, fmt.Errorf("lint: import cycle through %s", path)
		}
		return p.Types, nil
	}
	if l.modPath != "" && (path == l.modPath || strings.HasPrefix(path, l.modPath+"/")) {
		dir := filepath.Join(l.modRoot, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, l.modPath), "/")))
		p, err := l.LoadDir(dir, path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}

// LoadModule walks the module rooted at root (the directory holding
// go.mod) and loads every non-test package under it, skipping testdata,
// vendor and hidden directories. Packages come back sorted by import
// path. Intra-module imports are resolved by the loader itself, so each
// package is type-checked once no matter how many importers it has.
func (l *Loader) LoadModule(root string) ([]*Package, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	l.modRoot, l.modPath = root, modPath
	var dirs []string
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		if hasGoFiles(path) {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)

	var pkgs []*Package
	for _, dir := range dirs {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return nil, err
		}
		pkgPath := modPath
		if rel != "." {
			pkgPath = modPath + "/" + filepath.ToSlash(rel)
		}
		pkg, err := l.LoadDir(dir, pkgPath)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// LoadDir parses and type-checks the single package in dir under the
// given import path, memoizing the result so every importer shares one
// instance. Type errors are returned, not reported as findings: simlint
// analyzes code that already compiles.
func (l *Loader) LoadDir(dir, pkgPath string) (*Package, error) {
	if p, ok := l.pkgs[pkgPath]; ok {
		if p.Types == nil {
			return nil, fmt.Errorf("lint: import cycle through %s", pkgPath)
		}
		return p, nil
	}
	// Reserve the slot before type-checking: a cyclic import resolves to
	// the nil-Types placeholder and errors out instead of recursing.
	l.pkgs[pkgPath] = &Package{PkgPath: pkgPath, Dir: dir}
	entries, err := os.ReadDir(dir)
	if err != nil {
		delete(l.pkgs, pkgPath)
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") {
			continue
		}
		if !l.IncludeTests && strings.HasSuffix(name, "_test.go") {
			continue
		}
		// Honor build constraints (//go:build lines and _GOOS/_GOARCH
		// suffixes) for the host platform, as the compiler would —
		// otherwise a package with platform-split files (e.g. a unix
		// flock and its stub) presents both halves at once and fails to
		// type-check.
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			delete(l.pkgs, pkgPath)
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		delete(l.pkgs, pkgPath)
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(pkgPath, l.Fset, files, info)
	if err != nil {
		delete(l.pkgs, pkgPath)
		return nil, fmt.Errorf("lint: type-checking %s: %w", pkgPath, err)
	}
	p := l.pkgs[pkgPath]
	p.Fset, p.Files, p.Types, p.Info = l.Fset, files, tpkg, info
	return p, nil
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") &&
			!strings.HasSuffix(name, "_test.go") && !strings.HasPrefix(name, ".") {
			return true
		}
	}
	return false
}

// modulePath extracts the module declaration from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module line in %s", gomod)
}
