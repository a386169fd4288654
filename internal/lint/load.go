package lint

import (
	"bytes"
	"encoding/json"
	"errors"
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
	"strings"
)

// Package is one type-checked package: the unit analyzers operate on.
// Module packages carry full syntax so analyzers can reason
// interprocedurally (e.g. ctxpoll's polling-closure computation);
// standard-library dependencies are imported from compiler export data
// and have no syntax.
type Package struct {
	// Path is the package's import path.
	Path string
	// Name is the package name.
	Name string
	// Dir is the directory holding the package's sources.
	Dir string
	// Files holds the parsed non-test source files.
	Files []*ast.File
	// Types is the type-checked package object.
	Types *types.Package
	// Info holds the type-checker's expression and object tables.
	Info *types.Info
}

// listedPackage mirrors the go list -json fields the loader consumes.
type listedPackage struct {
	Dir        string
	ImportPath string
	Name       string
	Standard   bool
	Export     string
	GoFiles    []string
	Error      *struct{ Err string }
}

// Load lists patterns with the go tool (deps included, export data
// built) and type-checks every non-standard package from source in
// dependency order. It returns the packages matched by the patterns
// and a map of every module package loaded (targets plus their module
// dependencies) keyed by import path, all sharing one FileSet.
//
// Standard-library imports are satisfied from the compiler export data
// the go tool reports, so loading works offline and without any
// third-party machinery.
func Load(dir string, patterns ...string) (*token.FileSet, []*Package, map[string]*Package, error) {
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, nil, nil, err
	}

	fset := token.NewFileSet()
	exports := make(map[string]string) // import path -> export data file
	for _, lp := range listed {
		if lp.Export != "" {
			exports[lp.ImportPath] = lp.Export
		}
	}
	imp := &moduleImporter{
		source: make(map[string]*types.Package),
		gc:     newExportImporter(fset, exports),
	}

	all := make(map[string]*Package)
	var loaded []*Package
	// go list -deps emits dependencies before dependents, so every
	// module import of a package is already in imp.source when the
	// package itself is reached.
	for _, lp := range listed {
		if lp.Standard || lp.Name == "" {
			continue
		}
		if lp.Error != nil && len(lp.GoFiles) == 0 {
			return nil, nil, nil, fmt.Errorf("lint: load %s: %s", lp.ImportPath, lp.Error.Err)
		}
		pkg, err := typeCheck(fset, lp, imp)
		if err != nil {
			return nil, nil, nil, err
		}
		imp.source[lp.ImportPath] = pkg.Types
		all[lp.ImportPath] = pkg
		loaded = append(loaded, pkg)
	}

	// The targets are the listed packages that are not mere
	// dependencies: go list reports deps first, so match the patterns
	// again via a second, dependency-free listing.
	targetPaths, err := goListPaths(dir, patterns)
	if err != nil {
		return nil, nil, nil, err
	}
	var targets []*Package
	for _, path := range targetPaths {
		if pkg, ok := all[path]; ok {
			targets = append(targets, pkg)
		}
	}
	if len(targets) == 0 {
		return nil, nil, nil, fmt.Errorf("lint: no packages matched %v", patterns)
	}
	return fset, targets, all, nil
}

// typeCheck parses and type-checks one listed package.
func typeCheck(fset *token.FileSet, lp listedPackage, imp types.Importer) (*Package, error) {
	var files []*ast.File
	for _, name := range lp.GoFiles {
		path := filepath.Join(lp.Dir, name)
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: parse %s: %w", path, err)
		}
		files = append(files, f)
	}
	info := newTypesInfo()
	conf := types.Config{
		Importer: imp,
		Error:    func(error) {}, // collect best-effort; first hard error returned below
	}
	tpkg, err := conf.Check(lp.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: typecheck %s: %w", lp.ImportPath, err)
	}
	return &Package{
		Path:  lp.ImportPath,
		Name:  lp.Name,
		Dir:   lp.Dir,
		Files: files,
		Types: tpkg,
		Info:  info,
	}, nil
}

// newTypesInfo allocates the object tables analyzers rely on.
func newTypesInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// moduleImporter resolves module packages from the already
// source-checked set and everything else from export data.
type moduleImporter struct {
	source map[string]*types.Package
	gc     types.Importer
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := m.source[path]; ok {
		return pkg, nil
	}
	return m.gc.Import(path)
}

// newExportImporter returns a gc-export-data importer whose lookup is
// driven by the import path -> export file map from go list.
func newExportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(file)
	}
	return importer.ForCompiler(fset, "gc", lookup)
}

// goList runs go list -deps -export -json and decodes the package
// stream.
func goList(dir string, patterns []string) ([]listedPackage, error) {
	args := append([]string{
		"list", "-e", "-deps", "-export",
		"-json=Dir,ImportPath,Name,Standard,Export,GoFiles,Error",
		"--",
	}, patterns...)
	out, err := runGo(dir, args)
	if err != nil {
		return nil, err
	}
	var listed []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var lp listedPackage
		if err := dec.Decode(&lp); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decode go list output: %w", err)
		}
		listed = append(listed, lp)
	}
	return listed, nil
}

// goListPaths resolves patterns to import paths only.
func goListPaths(dir string, patterns []string) ([]string, error) {
	args := append([]string{"list", "-e", "--"}, patterns...)
	out, err := runGo(dir, args)
	if err != nil {
		return nil, err
	}
	var paths []string
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if line = strings.TrimSpace(line); line != "" {
			paths = append(paths, line)
		}
	}
	return paths, nil
}

func runGo(dir string, args []string) ([]byte, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go %s: %w\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return out, nil
}
