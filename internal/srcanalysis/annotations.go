package srcanalysis

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"
)

// Concurrency contracts are written where Go programmers already write
// them — in comments — and parsed here so lockguard and cowdiscipline can
// enforce them instead of trusting them:
//
//	guarded by <path>       on a struct field: the named mutex protects it
//	                        (and, by convention, the rest of the field's
//	                        blank-line-free group).
//	callers hold <path>     on a function: the body runs inside the named
//	callers must hold <path> mutex's critical section; several mutexes are
//	                        listed with "and" or commas.
//	callers must clone      on a function or field: the returned / stored
//	                        value is shared and must be cloned before any
//	                        write (the copy-on-write contract).
//
// The phrases may appear anywhere in a doc or line comment, in natural
// prose, case-insensitively; comment lines are joined with spaces first so
// a sentence may wrap ("Callers\n// hold c.mu" still parses). Paths
// resolve against the annotated declaration: for a function, the first
// segment names the receiver, a parameter, or a field of the receiver's
// struct; for a field, a field of the enclosing struct; later segments are
// field selections. A path that resolves to anything but a sync.Mutex or
// sync.RWMutex is ignored as prose, not a contract — so a typo silently
// weakens nothing that the adjacency convention or a lock call does not
// already cover.

// annotPath matches one dotted identifier path (no trailing dot, so a
// sentence period does not join the path).
const annotPath = `[A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)*`

var (
	guardedByRe = regexp.MustCompile(`(?i)\bguarded by\s+(` + annotPath +
		`(?:(?:,\s*|,?\s+and\s+)` + annotPath + `)*)`)
	callersHoldRe = regexp.MustCompile(`(?i)\bcallers (?:must )?hold\s+(` + annotPath +
		`(?:(?:,\s*|,?\s+and\s+)` + annotPath + `)*)`)
	mustCloneRe = regexp.MustCompile(`(?i)\bcallers must clone\b`)
)

// commentText joins the given comment groups into one space-separated
// string, so annotations spanning comment lines still match.
func commentText(groups ...*ast.CommentGroup) string {
	var b strings.Builder
	for _, g := range groups {
		if g == nil {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(strings.ReplaceAll(g.Text(), "\n", " "))
	}
	return b.String()
}

// splitAnnotPaths tokenizes the captured path list ("s.mu and db.mu",
// "a.mu, b.mu") into individual paths.
func splitAnnotPaths(list string) []string {
	var out []string
	for _, tok := range strings.Fields(strings.ReplaceAll(list, ",", " ")) {
		if strings.EqualFold(tok, "and") {
			continue
		}
		out = append(out, tok)
	}
	return out
}

// guardedPaths extracts every "guarded by ..." path from comment text.
func guardedPaths(text string) []string {
	var out []string
	for _, m := range guardedByRe.FindAllStringSubmatch(text, -1) {
		out = append(out, splitAnnotPaths(m[1])...)
	}
	return out
}

// holdPaths extracts every "callers (must) hold ..." path from comment
// text.
func holdPaths(text string) []string {
	var out []string
	for _, m := range callersHoldRe.FindAllStringSubmatch(text, -1) {
		out = append(out, splitAnnotPaths(m[1])...)
	}
	return out
}

// mustClone reports whether the comment text carries the copy-on-write
// contract.
func mustClone(text string) bool { return mustCloneRe.MatchString(text) }

// --- path resolution -----------------------------------------------------------

// structOf unwraps pointers and named types down to a struct type.
func structOf(t types.Type) *types.Struct {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Named:
			t = u.Underlying()
		case *types.Struct:
			return u
		default:
			return nil
		}
	}
}

// fieldByName finds a struct's direct field by name.
func fieldByName(st *types.Struct, name string) *types.Var {
	for i := 0; i < st.NumFields(); i++ {
		if f := st.Field(i); f.Name() == name {
			return f
		}
	}
	return nil
}

// fieldPath navigates a dotted field path from a struct-carrying type and
// returns the final field variable (nil if any step fails to resolve).
func fieldPath(t types.Type, segs []string) *types.Var {
	var fv *types.Var
	for _, seg := range segs {
		st := structOf(t)
		if st == nil {
			return nil
		}
		fv = fieldByName(st, seg)
		if fv == nil {
			return nil
		}
		t = fv.Type()
	}
	return fv
}

// resolveMutexPath resolves one annotation path against a function
// declaration: the first segment names the receiver or a parameter (the
// rest selects fields from it), or directly a field of the receiver's
// struct. The result is the mutex's field variable, nil when the path does
// not land on a sync.Mutex/RWMutex.
func resolveMutexPath(pkg *Pkg, fd *ast.FuncDecl, path string) *types.Var {
	segs := strings.Split(path, ".")
	fields := []*ast.Field{}
	if fd.Recv != nil {
		fields = append(fields, fd.Recv.List...)
	}
	if fd.Type.Params != nil {
		fields = append(fields, fd.Type.Params.List...)
	}
	for _, f := range fields {
		for _, name := range f.Names {
			if name.Name != segs[0] {
				continue
			}
			obj := pkg.Info.Defs[name]
			if obj == nil {
				return nil
			}
			if len(segs) == 1 {
				return nil // a bare receiver/param is not a mutex field
			}
			return mutexVar(fieldPath(obj.Type(), segs[1:]))
		}
	}
	// Not a receiver/parameter name: try it as a field path of the
	// receiver's struct ("db.mu" on a Session method → Session.db → mu).
	if fd.Recv != nil && len(fd.Recv.List) > 0 {
		if tv, ok := pkg.Info.Types[fd.Recv.List[0].Type]; ok {
			return mutexVar(fieldPath(tv.Type, segs))
		}
		// Receiver field with no name still has a type expression object.
		if len(fd.Recv.List[0].Names) > 0 {
			if obj := pkg.Info.Defs[fd.Recv.List[0].Names[0]]; obj != nil {
				return mutexVar(fieldPath(obj.Type(), segs))
			}
		}
	}
	return nil
}

// mutexVar filters a resolved field down to an actual mutex.
func mutexVar(fv *types.Var) *types.Var {
	if fv == nil || !isMutexType(fv.Type()) {
		return nil
	}
	return fv
}

// isMutexType reports whether t is sync.Mutex or sync.RWMutex (possibly
// behind a pointer).
func isMutexType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil || n.Obj().Pkg().Path() != "sync" {
		return false
	}
	return n.Obj().Name() == "Mutex" || n.Obj().Name() == "RWMutex"
}

// isSyncType reports whether t is declared in sync or sync/atomic — such
// fields synchronize themselves and are excluded from the mutex-adjacency
// convention.
func isSyncType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return false
	}
	path := n.Obj().Pkg().Path()
	return path == "sync" || path == "sync/atomic"
}

// selfSynchronized reports whether the type carries its own
// synchronization — a mutex or atomic field within two levels of struct
// nesting. Handing such a value out of a guard's critical section is safe:
// the value defends itself.
func selfSynchronized(t types.Type, depth int) bool {
	st := structOf(t)
	if st == nil {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		ft := st.Field(i).Type()
		if isSyncType(ft) {
			return true
		}
		if depth > 0 && selfSynchronized(ft, depth-1) {
			return true
		}
	}
	return false
}

// refType reports whether values of t share state when copied — they
// contain a pointer, slice, map, channel, function or interface. Plain
// value types (ints, strings, arrays/structs of them) are safe to copy
// out of a critical section or a shared cache.
func refType(t types.Type) bool {
	return refTypeSeen(t, make(map[types.Type]bool))
}

func refTypeSeen(t types.Type, seen map[types.Type]bool) bool {
	if t == nil || seen[t] {
		return false
	}
	seen[t] = true
	switch u := t.(type) {
	case *types.Basic:
		return false
	case *types.Named:
		return refTypeSeen(u.Underlying(), seen)
	case *types.Array:
		return refTypeSeen(u.Elem(), seen)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if refTypeSeen(u.Field(i).Type(), seen) {
				return true
			}
		}
		return false
	default:
		// Pointer, Slice, Map, Chan, Signature, Interface, Tuple, ...
		return true
	}
}

// --- fresh locals --------------------------------------------------------------

// freshLocals computes the function's freshly constructed locals: variables
// whose every assignment is a composite literal (possibly behind &) or
// new(). A fresh object is not yet shared, so constructors may initialize
// its guarded fields without the lock and populate its copy-on-write maps
// without cloning.
func freshLocals(pkg *Pkg, fd *ast.FuncDecl) map[types.Object]bool {
	byObj := make(map[types.Object][]assignment)
	for _, as := range collectAssignments(pkg, fd) {
		byObj[as.obj] = append(byObj[as.obj], as)
	}
	out := make(map[types.Object]bool)
	for obj, asgs := range byObj {
		fresh := true
		for _, as := range asgs {
			if !freshExpr(pkg, as.rhs) {
				fresh = false
				break
			}
		}
		if fresh {
			out[obj] = true
		}
	}
	return out
}

// freshExpr matches the constructor forms: T{...}, &T{...}, new(T).
func freshExpr(pkg *Pkg, e ast.Expr) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		_, ok := ast.Unparen(x.X).(*ast.CompositeLit)
		return ok
	case *ast.CallExpr:
		b, ok := calleeOf(pkg.Info, x).(*types.Builtin)
		return ok && b.Name() == "new"
	}
	return false
}

// rootIdentObj unwraps selector/index/star/slice/unary chains to the root
// identifier's object (nil when the chain is not rooted in an identifier).
func rootIdentObj(pkg *Pkg, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			if obj := pkg.Info.Uses[x]; obj != nil {
				return obj
			}
			return pkg.Info.Defs[x]
		case *ast.SelectorExpr:
			if pkg.Info.Selections[x] == nil {
				return nil // qualified identifier: package-level root
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		case *ast.TypeAssertExpr:
			e = x.X
		case *ast.CallExpr:
			// A chain through a call (f().x) has no stable root.
			return nil
		default:
			return nil
		}
	}
}
