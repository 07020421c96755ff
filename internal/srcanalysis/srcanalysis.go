// Package srcanalysis is the source-level invariant checker behind
// cmd/xmlsec-vet: it parses and type-checks the whole module with
// go/parser and go/types (stdlib only, no x/tools) and proves, pass by
// pass, that the Go code keeps the paper's access-control model closed.
//
// The four passes and the invariants they guard:
//
//   - viewbypass: only the trusted internal packages may touch raw
//     xmltree nodes or call the unsecured executors. Everything else must
//     go through the core session API, whose reads materialize the
//     axiom 15–17 view and whose writes run the axiom 18–25 checks.
//   - privconst: privilege values are born only as the named constants of
//     internal/policy (axiom 14's closed privilege set). Integer literals
//     and conversions that could fabricate a privilege are flagged.
//   - obslabel: metric label values handed to internal/obs must be
//     compile-time constants (or provably bounded), so the telemetry
//     layer cannot become the §2.2 covert channel for document content.
//   - ctxflow: request contexts are accepted and forwarded along the hot
//     path, so every audited operation keeps its request identity.
//
// Lock and copy-on-write discipline is not a pass: every function that
// touches mutex-guarded state takes the lock in its own body, shared
// values are built once and never written afterwards, and the race tests
// under make race check both at run time.
//
// Findings use the shared internal/findings schema (the same JSON CI
// consumes from xmlsec-lint). A committed baseline file grandfathers
// individually justified findings; stale baseline entries are errors, so
// the baseline can only shrink.
package srcanalysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"securexml/internal/findings"
)

// Tool is the analyzer name stamped on every finding.
const Tool = "xmlsec-vet"

// Config selects what to load and what to check.
type Config struct {
	// ModuleDir is the module root (the directory holding go.mod).
	ModuleDir string
	// ExtraDirs maps additional import paths to directories parsed and
	// type-checked as if they were module packages. Tests use this to
	// analyze seeded testdata sources against the real module.
	ExtraDirs map[string]string
	// Packages restricts the analysis to these import paths (they must be
	// module packages or ExtraDirs entries). Empty means every package
	// discovered in the module.
	Packages []string
	// Passes restricts which passes run. Empty means all of them.
	Passes []string
}

// pass is one registered invariant check.
type pass struct {
	name string
	doc  string
	run  func(a *analysis)
}

// registry holds the passes in their fixed execution order.
var registry = []*pass{viewbypassPass, privconstPass, obslabelPass, ctxflowPass}

// Passes returns the registered pass names in execution order.
func Passes() []string {
	out := make([]string, len(registry))
	for i, p := range registry {
		out[i] = p.name
	}
	return out
}

// PassDoc returns the one-line description of a pass ("" if unknown).
func PassDoc(name string) string {
	for _, p := range registry {
		if p.name == name {
			return p.doc
		}
	}
	return ""
}

// analysis is the shared state passes report into.
type analysis struct {
	prog    *Program
	targets []*Pkg
	cur     *pass
	raw     []rawFinding
}

// rawFinding pairs a finding with its resolved position for stable
// sorting and baseline matching.
type rawFinding struct {
	pos  token.Position
	file string
	f    findings.Finding
}

// reportf records one finding for the running pass.
func (a *analysis) reportf(pkg *Pkg, pos token.Pos, code, key, format string, args ...any) {
	tp := a.prog.position(pos)
	a.raw = append(a.raw, rawFinding{
		pos:  tp,
		file: tp.Filename,
		f: findings.Finding{
			Tool:     Tool,
			Pass:     a.cur.name,
			Code:     code,
			Severity: findings.Error,
			Message:  fmt.Sprintf(format, args...),
			Pos:      fmt.Sprintf("%s:%d:%d", tp.Filename, tp.Line, tp.Column),
			Function: enclosingFunc(pkg, pos),
			Key:      key,
		},
	})
}

// Run executes the selected passes over the selected packages and folds
// the baseline in: matched findings are suppressed and counted, unmatched
// baseline entries become stale-entry errors.
func (p *Program) Run(cfg Config, base *Baseline) (*findings.Report, error) {
	sel, err := selectPasses(cfg.Passes)
	if err != nil {
		return nil, err
	}
	targets, err := p.targetPkgs(cfg.Packages)
	if err != nil {
		return nil, err
	}
	a := &analysis{prog: p, targets: targets}
	for _, ps := range sel {
		a.cur = ps
		ps.run(a)
	}
	sort.SliceStable(a.raw, func(i, j int) bool {
		pi, pj := a.raw[i].pos, a.raw[j].pos
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return a.raw[i].f.Code < a.raw[j].f.Code
	})

	rep := &findings.Report{Tool: Tool, Analyzed: len(targets)}
	used := make([]bool, 0)
	if base != nil {
		used = make([]bool, len(base.Entries))
	}
	for i := range a.raw {
		rf := &a.raw[i]
		if base != nil {
			if idx := base.match(rf); idx >= 0 {
				used[idx] = true
				rep.Suppressed++
				continue
			}
		}
		rep.Findings = append(rep.Findings, rf.f)
	}
	if base != nil {
		for i, e := range base.Entries {
			if used[i] {
				continue
			}
			rep.Findings = append(rep.Findings, findings.Finding{
				Tool: Tool, Pass: "baseline", Code: "stale-entry",
				Severity: findings.Error,
				Message: fmt.Sprintf("baseline entry %s/%s key=%q matched no finding; delete it",
					e.Pass, e.Code, e.Key),
				Pos: e.File, Function: e.Function, Key: e.Key,
			})
		}
	}
	return rep, nil
}

// selectPasses resolves pass names (empty = all, order preserved from the
// registry).
func selectPasses(names []string) ([]*pass, error) {
	if len(names) == 0 {
		return registry, nil
	}
	want := make(map[string]bool, len(names))
	for _, n := range names {
		found := false
		for _, p := range registry {
			if p.name == n {
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("srcanalysis: unknown pass %q (have %s)", n, strings.Join(Passes(), ", "))
		}
		want[n] = true
	}
	var out []*pass
	for _, p := range registry {
		if want[p.name] {
			out = append(out, p)
		}
	}
	return out, nil
}

// targetPkgs resolves the package selection (empty = every module
// package).
func (p *Program) targetPkgs(paths []string) ([]*Pkg, error) {
	if len(paths) == 0 {
		paths = p.ModulePackages()
	}
	out := make([]*Pkg, 0, len(paths))
	for _, path := range paths {
		pkg := p.Package(path)
		if pkg == nil {
			return nil, fmt.Errorf("srcanalysis: package %s was not loaded", path)
		}
		out = append(out, pkg)
	}
	return out, nil
}

// --- shared pass helpers -------------------------------------------------------

// internalPath returns the module-internal import path for a short name
// ("xmltree" -> "securexml/internal/xmltree").
func (a *analysis) internalPath(short string) string {
	return a.prog.ModulePath + "/internal/" + short
}

// untrustedInternal are the internal packages without a raw-node license:
// the user-facing shell and server, which must go through the core session
// API.
var untrustedInternal = map[string]bool{"shell": true, "server": true}

// trustedPkg reports whether the import path belongs to the trusted
// enforcement core: the internal packages that implement the model
// (xmltree, xpath, view, access, policy, core, ...), minus the ones in
// untrustedInternal.
func (a *analysis) trustedPkg(path string) bool {
	rest, ok := strings.CutPrefix(path, a.prog.ModulePath+"/internal/")
	if !ok {
		return false
	}
	short, _, _ := strings.Cut(rest, "/")
	return !untrustedInternal[short]
}

// objPkgPath returns the import path of the object's package ("" for
// builtins and nil objects).
func objPkgPath(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path()
}

// namedBase strips pointers, slices, arrays and maps down to a named type
// (nil if the base is unnamed).
func namedBase(t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Slice:
			t = u.Elem()
		case *types.Array:
			t = u.Elem()
		case *types.Map:
			t = u.Elem()
		case *types.Named:
			return u
		default:
			return nil
		}
	}
}

// typeFromPkg reports whether t's named base is declared in the package
// with the given import path (optionally restricted to one type name).
func typeFromPkg(t types.Type, pkgPath string, names ...string) bool {
	n := namedBase(t)
	if n == nil || n.Obj().Pkg() == nil || n.Obj().Pkg().Path() != pkgPath {
		return false
	}
	if len(names) == 0 {
		return true
	}
	for _, name := range names {
		if n.Obj().Name() == name {
			return true
		}
	}
	return false
}

// isConst reports whether the expression has a compile-time constant
// value.
func isConst(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.Value != nil
}

// inspectFuncs walks every function declaration body of a package.
func inspectFuncs(pkg *Pkg, fn func(decl *ast.FuncDecl)) {
	for _, file := range pkg.Files {
		for _, d := range file.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				fn(fd)
			}
		}
	}
}
