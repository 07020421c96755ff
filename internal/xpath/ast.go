package xpath

import (
	"fmt"
	"strings"
)

// Axis enumerates the XPath 1.0 axes. The namespace axis is not supported
// (the paper's model is namespace-free).
type Axis int

// Supported axes.
const (
	AxisChild Axis = iota
	AxisDescendant
	AxisParent
	AxisAncestor
	AxisFollowingSibling
	AxisPrecedingSibling
	AxisFollowing
	AxisPreceding
	AxisAttribute
	AxisSelf
	AxisDescendantOrSelf
	AxisAncestorOrSelf
)

var axisNames = map[string]Axis{
	"child":              AxisChild,
	"descendant":         AxisDescendant,
	"parent":             AxisParent,
	"ancestor":           AxisAncestor,
	"following-sibling":  AxisFollowingSibling,
	"preceding-sibling":  AxisPrecedingSibling,
	"following":          AxisFollowing,
	"preceding":          AxisPreceding,
	"attribute":          AxisAttribute,
	"self":               AxisSelf,
	"descendant-or-self": AxisDescendantOrSelf,
	"ancestor-or-self":   AxisAncestorOrSelf,
}

// String returns the axis name as written in expressions.
func (a Axis) String() string {
	for name, ax := range axisNames {
		if ax == a {
			return name
		}
	}
	return fmt.Sprintf("axis(%d)", int(a))
}

// isReverse reports whether the axis is a reverse axis (proximity position
// counts backwards in document order).
func (a Axis) isReverse() bool {
	switch a {
	case AxisParent, AxisAncestor, AxisAncestorOrSelf, AxisPreceding, AxisPrecedingSibling:
		return true
	default:
		return false
	}
}

// nodeTestKind discriminates node tests.
type nodeTestKind int

const (
	testName     nodeTestKind = iota // QName
	testWildcard                     // *
	testText                         // text()
	testComment                      // comment()
	testPI                           // processing-instruction()
	testNode                         // node()
)

// nodeTest is a step's node test.
type nodeTest struct {
	kind nodeTestKind
	name string // for testName
}

func (nt nodeTest) String() string {
	switch nt.kind {
	case testName:
		return nt.name
	case testWildcard:
		return "*"
	case testText:
		return "text()"
	case testComment:
		return "comment()"
	case testPI:
		return "processing-instruction()"
	default:
		return "node()"
	}
}

// expr is a compiled XPath expression node.
type expr interface {
	eval(ctx *evalCtx) (Value, error)
	String() string
}

// step is one location step: axis::test[pred]...
type step struct {
	axis  Axis
	test  nodeTest
	preds []expr
}

func (s step) String() string {
	var b strings.Builder
	b.WriteString(s.axis.String())
	b.WriteString("::")
	b.WriteString(s.test.String())
	for _, p := range s.preds {
		fmt.Fprintf(&b, "[%s]", p)
	}
	return b.String()
}

// pathExpr is a location path: optionally absolute, optionally rooted in a
// filter expression (e.g. "(..)/x" or "$v/x" are modeled with base != nil).
type pathExpr struct {
	absolute bool
	base     expr // nil for plain location paths
	steps    []step
}

func (p *pathExpr) String() string {
	var b strings.Builder
	if p.base != nil {
		b.WriteString(operand(p.base))
	} else if p.absolute {
		b.WriteString("/")
	}
	for i, s := range p.steps {
		if i > 0 || p.base != nil {
			b.WriteString("/")
		}
		b.WriteString(s.String())
	}
	if p.absolute && len(p.steps) == 0 && p.base == nil {
		return "/"
	}
	return b.String()
}

// operand renders e where a token may follow it. The bare root path is
// parenthesized: "/ * 0" would reparse as the path "/*" and a stray
// number, "/ div 2" as the path "/div". So is a negation: "-(0)/a" would
// reparse as the negated path "-((0)/a)", "-(0)[1]" as "-((0)[1])".
func operand(e expr) string {
	switch e := e.(type) {
	case *pathExpr:
		if e.absolute && e.base == nil && len(e.steps) == 0 {
			return "(/)"
		}
	case *negExpr:
		return "(" + e.String() + ")"
	}
	return e.String()
}

// filterExpr is a primary expression with predicates: primary[pred]...
type filterExpr struct {
	primary expr
	preds   []expr
}

func (f *filterExpr) String() string {
	var b strings.Builder
	b.WriteString(operand(f.primary))
	for _, p := range f.preds {
		fmt.Fprintf(&b, "[%s]", p)
	}
	return b.String()
}

// binaryOp enumerates binary operators.
type binaryOp int

const (
	opOr binaryOp = iota
	opAnd
	opEq
	opNeq
	opLt
	opLeq
	opGt
	opGeq
	opPlus
	opMinus
	opMul
	opDiv
	opMod
	opUnion
)

func (o binaryOp) String() string {
	switch o {
	case opOr:
		return "or"
	case opAnd:
		return "and"
	case opEq:
		return "="
	case opNeq:
		return "!="
	case opLt:
		return "<"
	case opLeq:
		return "<="
	case opGt:
		return ">"
	case opGeq:
		return ">="
	case opPlus:
		return "+"
	case opMinus:
		return "-"
	case opMul:
		return "*"
	case opDiv:
		return "div"
	case opMod:
		return "mod"
	case opUnion:
		return "|"
	default:
		return fmt.Sprintf("op(%d)", int(o))
	}
}

// binaryExpr applies a binary operator.
type binaryExpr struct {
	op   binaryOp
	l, r expr
}

func (b *binaryExpr) String() string {
	return fmt.Sprintf("(%s %s %s)", operand(b.l), b.op, operand(b.r))
}

// negExpr is unary minus.
type negExpr struct{ e expr }

func (n *negExpr) String() string { return fmt.Sprintf("-(%s)", n.e) }

// numberLit is a numeric literal. The original lexeme is kept for
// rendering: XPath's number grammar has no exponent notation, and extreme
// literals can overflow to +Inf, which only the source text can express.
type numberLit struct {
	val  float64
	text string
}

func (n numberLit) String() string { return n.text }

// stringLit is a string literal.
type stringLit string

// String renders the literal. XPath 1.0 has no escape sequences in string
// literals, so the quote style is chosen to avoid the content (a literal
// can never contain both kinds — the grammar cannot express one).
func (s stringLit) String() string {
	if strings.Contains(string(s), `"`) {
		return "'" + string(s) + "'"
	}
	return `"` + string(s) + `"`
}

// varRef references a variable binding.
type varRef string

func (v varRef) String() string { return "$" + string(v) }

// funcCall calls a core library function.
type funcCall struct {
	name string
	fn   *function
	args []expr
}

func (f *funcCall) String() string {
	parts := make([]string, len(f.args))
	for i, a := range f.args {
		parts[i] = a.String()
	}
	return f.name + "(" + strings.Join(parts, ", ") + ")"
}

// UsesVariable reports whether the compiled expression references $name
// anywhere — in a step predicate, a filter base, or a function argument.
// Expressions that do not are independent of the binding: they evaluate
// identically whatever value (or no value) name is bound to.
func (c *Compiled) UsesVariable(name string) bool {
	return exprUsesVar(c.root, name)
}

// exprUsesVar walks the expression tree looking for $name.
func exprUsesVar(e expr, name string) bool {
	switch v := e.(type) {
	case varRef:
		return string(v) == name
	case *pathExpr:
		if v.base != nil && exprUsesVar(v.base, name) {
			return true
		}
		for _, st := range v.steps {
			for _, p := range st.preds {
				if exprUsesVar(p, name) {
					return true
				}
			}
		}
		return false
	case *filterExpr:
		if exprUsesVar(v.primary, name) {
			return true
		}
		for _, p := range v.preds {
			if exprUsesVar(p, name) {
				return true
			}
		}
		return false
	case *binaryExpr:
		return exprUsesVar(v.l, name) || exprUsesVar(v.r, name)
	case *negExpr:
		return exprUsesVar(v.e, name)
	case *funcCall:
		for _, a := range v.args {
			if exprUsesVar(a, name) {
				return true
			}
		}
		return false
	default:
		return false
	}
}
