package analyze

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	// Path is the import path ("repro/internal/sim").
	Path string
	// Dir is the directory the files were read from.
	Dir string
	// Fset positions every file in the load.
	Fset *token.FileSet
	// Files are the non-test syntax trees, sorted by filename.
	Files []*ast.File
	// Types and Info are the type checker's output.
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages without the go command or
// golang.org/x/tools: intra-module imports resolve against packages the
// loader has already checked (topological order), and standard-library
// imports are type-checked from GOROOT source by go/importer's "source"
// compiler importer.
type Loader struct {
	Fset *token.FileSet
	// Module is the module path from go.mod.
	Module string
	// std resolves standard-library imports from source.
	std types.Importer
	// checked caches finished packages by import path.
	checked map[string]*Package
	// dirOf maps registered import paths to directories.
	dirOf map[string]string
}

// NewLoader returns a loader rooted at the module whose path is module.
func NewLoader(module string) *Loader {
	fset := token.NewFileSet()
	return &Loader{
		Fset:    fset,
		Module:  module,
		std:     importer.ForCompiler(fset, "source", nil),
		checked: map[string]*Package{},
		dirOf:   map[string]string{},
	}
}

// ModulePath reads the module path from the go.mod in dir.
func ModulePath(dir string) (string, error) {
	data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("analyze: no module line in %s/go.mod", dir)
}

// LoadTree loads every package under root (the module root), skipping
// testdata, hidden directories and _test.go files, and returns the
// packages in topological (dependency-first) order.
func (l *Loader) LoadTree(root string) ([]*Package, error) {
	dirs, err := goDirs(root)
	if err != nil {
		return nil, err
	}
	var paths []string
	for _, dir := range dirs {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return nil, err
		}
		path := l.Module
		if rel != "." {
			path = l.Module + "/" + filepath.ToSlash(rel)
		}
		paths = append(paths, path)
		l.register(path, dir)
	}
	var pkgs []*Package
	for _, path := range paths {
		pkg, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			pkgs = append(pkgs, pkg)
		}
	}
	// Load recurses into intra-module imports before checking the
	// importer, so type-checking order is topological regardless of the
	// (sorted, deterministic) order packages are returned in.
	return pkgs, nil
}

func (l *Loader) register(path, dir string) { l.dirOf[path] = dir }

// Load parses and type-checks the package registered at path (and,
// recursively, any intra-module dependencies). It returns nil for a
// directory with no buildable Go files.
func (l *Loader) Load(path string) (*Package, error) {
	if pkg, ok := l.checked[path]; ok {
		return pkg, nil
	}
	dir, ok := l.dirOf[path]
	if !ok {
		return nil, fmt.Errorf("analyze: import %q is not under the loaded tree", path)
	}
	files, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		l.checked[path] = nil
		return nil, nil
	}
	// Check intra-module imports first so the importer below finds them.
	for _, f := range files {
		for _, imp := range f.Imports {
			ipath := strings.Trim(imp.Path.Value, `"`)
			if ipath == l.Module || strings.HasPrefix(ipath, l.Module+"/") {
				if _, err := l.Load(ipath); err != nil {
					return nil, err
				}
			}
		}
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: importerFunc(l.importPkg)}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analyze: %s: %w", path, err)
	}
	pkg := &Package{Path: path, Dir: dir, Fset: l.Fset, Files: files, Types: tpkg, Info: info}
	l.checked[path] = pkg
	return pkg, nil
}

// importPkg resolves an import for the type checker: module-local
// packages from the loader's cache, everything else from GOROOT source.
func (l *Loader) importPkg(path string) (*types.Package, error) {
	if path == l.Module || strings.HasPrefix(path, l.Module+"/") {
		pkg, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			return nil, fmt.Errorf("analyze: %q has no Go files", path)
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// parseDir parses the non-test Go files of one directory, sorted by
// name for deterministic declaration order.
func (l *Loader) parseDir(dir string) ([]*ast.File, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// skipTreeDir reports whether a walk of the module rooted at root
// skips the directory at path: hidden, underscore-prefixed and testdata
// directories, and nested modules (a directory with its own go.mod),
// which `go build ./...` and `go vet ./...` leave out as well.
func skipTreeDir(root, path, name string) bool {
	if path == root {
		return false
	}
	if strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" {
		return true
	}
	_, err := os.Stat(filepath.Join(path, "go.mod"))
	return err == nil
}

// goDirs returns every directory of the module rooted at root that
// contains at least one non-test Go file, in sorted order.
func goDirs(root string) ([]string, error) {
	seen := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if skipTreeDir(root, path, name) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			seen[filepath.Dir(path)] = true
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	dirs := make([]string, 0, len(seen))
	for d := range seen {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)
	return dirs, nil
}
