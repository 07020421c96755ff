package srcanalysis

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

// Pkg is one type-checked package of the module under analysis.
type Pkg struct {
	// Path is the import path ("securexml/internal/core"). Command and
	// example directories get their directory-derived path even though they
	// are not importable.
	Path  string
	Dir   string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Program is the loaded module: every package parsed with go/parser and
// type-checked with go/types (stdlib dependencies are type-checked from
// GOROOT source, keeping the analyzer dependency-free). Passes receive the
// whole Program so they can resolve cross-package call sites and function
// bodies.
type Program struct {
	Fset       *token.FileSet
	ModuleDir  string
	ModulePath string

	pkgs      map[string]*Pkg // by import path; module + extra packages
	modPaths  []string        // module packages discovered by the walk, sorted
	extraDirs map[string]string
	std       types.Importer
	loading   map[string]bool

	// Lazy program-wide indexes (built on first use).
	funcDecls map[types.Object]*declSite
	params    map[types.Object]*paramSite
	recvs     map[types.Object]*paramSite // receiver objects, index -1
	calls     map[types.Object][]*callSite
}

// declSite locates a function declaration.
type declSite struct {
	pkg  *Pkg
	decl *ast.FuncDecl
}

// paramSite locates one parameter within a function declaration.
type paramSite struct {
	fn    types.Object // the declared function the parameter belongs to
	index int          // position in the flattened parameter list
}

// callSite locates one call expression.
type callSite struct {
	pkg  *Pkg
	call *ast.CallExpr
}

// Load parses and type-checks the module rooted at cfg.ModuleDir (every
// package directory outside testdata and dot-directories) plus any
// cfg.ExtraDirs packages (used by tests to analyze seeded testdata sources
// as if they were module packages).
func Load(cfg Config) (*Program, error) {
	moduleDir, err := filepath.Abs(cfg.ModuleDir)
	if err != nil {
		return nil, err
	}
	modulePath, err := modulePathOf(moduleDir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	prog := &Program{
		Fset:       fset,
		ModuleDir:  moduleDir,
		ModulePath: modulePath,
		pkgs:       make(map[string]*Pkg),
		extraDirs:  cfg.ExtraDirs,
		std:        importer.ForCompiler(fset, "source", nil),
		loading:    make(map[string]bool),
	}
	paths, err := prog.discover()
	if err != nil {
		return nil, err
	}
	prog.modPaths = paths
	for _, path := range paths {
		if _, err := prog.load(path); err != nil {
			return nil, err
		}
	}
	extras := make([]string, 0, len(cfg.ExtraDirs))
	for path := range cfg.ExtraDirs {
		extras = append(extras, path)
	}
	sort.Strings(extras)
	for _, path := range extras {
		if _, err := prog.load(path); err != nil {
			return nil, err
		}
	}
	return prog, nil
}

// modulePathOf reads the module directive from go.mod.
func modulePathOf(dir string) (string, error) {
	data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return "", fmt.Errorf("srcanalysis: %s is not a module root: %w", dir, err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("srcanalysis: no module directive in %s/go.mod", dir)
}

// discover walks the module for package directories, skipping VCS metadata,
// dot-directories and testdata trees (the go tool does the same).
func (p *Program) discover() ([]string, error) {
	var paths []string
	err := filepath.WalkDir(p.ModuleDir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != p.ModuleDir && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		has, err := hasGoFiles(path)
		if err != nil {
			return err
		}
		if !has {
			return nil
		}
		rel, err := filepath.Rel(p.ModuleDir, path)
		if err != nil {
			return err
		}
		if rel == "." {
			paths = append(paths, p.ModulePath)
		} else {
			paths = append(paths, p.ModulePath+"/"+filepath.ToSlash(rel))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	return paths, nil
}

func hasGoFiles(dir string) (bool, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false, err
	}
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
			return true, nil
		}
	}
	return false, nil
}

// dirFor maps an import path to its directory: ExtraDirs first, then the
// module layout.
func (p *Program) dirFor(path string) string {
	if dir, ok := p.extraDirs[path]; ok {
		return dir
	}
	if path == p.ModulePath {
		return p.ModuleDir
	}
	return filepath.Join(p.ModuleDir, filepath.FromSlash(strings.TrimPrefix(path, p.ModulePath+"/")))
}

// load parses and type-checks one module package (memoized).
func (p *Program) load(path string) (*Pkg, error) {
	if pkg, ok := p.pkgs[path]; ok {
		return pkg, nil
	}
	if p.loading[path] {
		return nil, fmt.Errorf("srcanalysis: import cycle through %s", path)
	}
	p.loading[path] = true
	defer delete(p.loading, path)

	dir := p.dirFor(path)
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("srcanalysis: loading %s: %w", path, err)
	}
	var files []*ast.File
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(p.Fset, filepath.Join(dir, e.Name()), nil, 0)
		if err != nil {
			return nil, fmt.Errorf("srcanalysis: %w", err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("srcanalysis: no Go files in %s", dir)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: p}
	tpkg, err := conf.Check(path, p.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("srcanalysis: type-checking %s: %w", path, err)
	}
	pkg := &Pkg{Path: path, Dir: dir, Files: files, Types: tpkg, Info: info}
	p.pkgs[path] = pkg
	return pkg, nil
}

// Import implements types.Importer: module packages resolve through the
// program loader, everything else through the GOROOT source importer.
func (p *Program) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == p.ModulePath || strings.HasPrefix(path, p.ModulePath+"/") {
		pkg, err := p.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return p.std.Import(path)
}

// Package returns a loaded package by import path (nil if not loaded).
func (p *Program) Package(path string) *Pkg { return p.pkgs[path] }

// ModulePackages returns the import paths discovered by the module walk
// (extras excluded), sorted.
func (p *Program) ModulePackages() []string {
	return append([]string(nil), p.modPaths...)
}

// position renders a node position relative to the module root.
func (p *Program) position(pos token.Pos) token.Position {
	tp := p.Fset.Position(pos)
	if rel, err := filepath.Rel(p.ModuleDir, tp.Filename); err == nil && !strings.HasPrefix(rel, "..") {
		tp.Filename = filepath.ToSlash(rel)
	}
	return tp
}

// --- program-wide indexes ------------------------------------------------------

// buildIndexes fills the lazy declaration, parameter and call-site maps.
func (p *Program) buildIndexes() {
	if p.funcDecls != nil {
		return
	}
	p.funcDecls = make(map[types.Object]*declSite)
	p.params = make(map[types.Object]*paramSite)
	p.recvs = make(map[types.Object]*paramSite)
	p.calls = make(map[types.Object][]*callSite)
	for _, pkg := range p.pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				obj := pkg.Info.Defs[fd.Name]
				if obj == nil {
					continue
				}
				p.funcDecls[obj] = &declSite{pkg: pkg, decl: fd}
				if fd.Recv != nil {
					for _, field := range fd.Recv.List {
						for _, name := range field.Names {
							if ro := pkg.Info.Defs[name]; ro != nil {
								p.recvs[ro] = &paramSite{fn: obj, index: -1}
							}
						}
					}
				}
				idx := 0
				for _, field := range fd.Type.Params.List {
					if len(field.Names) == 0 {
						idx++
						continue
					}
					for _, name := range field.Names {
						if po := pkg.Info.Defs[name]; po != nil {
							p.params[po] = &paramSite{fn: obj, index: idx}
						}
						idx++
					}
				}
			}
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if obj := calleeOf(pkg.Info, call); obj != nil {
					p.calls[obj] = append(p.calls[obj], &callSite{pkg: pkg, call: call})
				}
				return true
			})
		}
	}
}

// calleeOf resolves the object a call expression invokes (function, method
// or, for conversions, the type name). Returns nil for calls through
// function values or literals.
func calleeOf(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		return info.Uses[fun.Sel]
	}
	return nil
}

// declOf returns the AST declaration of a function object, if it was loaded.
func (p *Program) declOf(obj types.Object) *declSite {
	p.buildIndexes()
	return p.funcDecls[obj]
}

// paramOf reports whether obj is a parameter of a loaded function
// declaration.
func (p *Program) paramOf(obj types.Object) *paramSite {
	p.buildIndexes()
	return p.params[obj]
}

// recvOf reports whether obj is the receiver of a loaded method
// declaration (index -1).
func (p *Program) recvOf(obj types.Object) *paramSite {
	p.buildIndexes()
	return p.recvs[obj]
}

// callsOf returns every loaded call site that invokes obj.
func (p *Program) callsOf(obj types.Object) []*callSite {
	p.buildIndexes()
	return p.calls[obj]
}

// enclosingFunc names the function declaration containing pos
// ("Type.Method" for methods), or "" at file scope.
func enclosingFunc(pkg *Pkg, pos token.Pos) string {
	for _, file := range pkg.Files {
		if pos < file.Pos() || pos > file.End() {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || pos < fd.Pos() || pos > fd.End() {
				continue
			}
			if fd.Recv != nil && len(fd.Recv.List) > 0 {
				return recvTypeName(fd.Recv.List[0].Type) + "." + fd.Name.Name
			}
			return fd.Name.Name
		}
	}
	return ""
}

// recvTypeName renders a receiver type expression's base type name.
func recvTypeName(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.StarExpr:
		return recvTypeName(t.X)
	case *ast.IndexExpr: // generic receiver
		return recvTypeName(t.X)
	default:
		return "?"
	}
}
