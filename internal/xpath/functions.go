package xpath

import (
	"fmt"
	"math"
	"strings"

	"securexml/internal/xmltree"
)

// function describes one core-library function.
type function struct {
	minArgs int
	maxArgs int // -1 = unbounded
	impl    func(ctx *evalCtx, args []Value) (Value, error)
}

// functions is the XPath 1.0 core function library. Omitted relative to the
// spec: id() (no DTD ids in the model), lang() and namespace-uri() (no
// namespaces).
var functions map[string]*function

func init() {
	functions = map[string]*function{
		"last": {0, 0, func(ctx *evalCtx, _ []Value) (Value, error) {
			return Number(ctx.size), nil
		}},
		"position": {0, 0, func(ctx *evalCtx, _ []Value) (Value, error) {
			return Number(ctx.pos), nil
		}},
		"count": {1, 1, func(_ *evalCtx, args []Value) (Value, error) {
			ns, ok := args[0].(NodeSet)
			if !ok {
				return nil, fmt.Errorf("xpath: count() requires a node-set, got %s", args[0].TypeName())
			}
			return Number(len(ns)), nil
		}},
		"name":       {0, 1, nameFunc},
		"local-name": {0, 1, nameFunc},
		"string": {0, 1, func(ctx *evalCtx, args []Value) (Value, error) {
			if len(args) == 0 {
				return String(ctx.sec.StringValue(ctx.node)), nil
			}
			if ns, ok := args[0].(NodeSet); ok {
				if len(ns) == 0 {
					return String(""), nil
				}
				return String(ctx.sec.StringValue(ns[0])), nil
			}
			return String(args[0].Str()), nil
		}},
		"concat": {2, -1, func(ctx *evalCtx, args []Value) (Value, error) {
			var b strings.Builder
			for _, a := range args {
				b.WriteString(valueStr(ctx, a))
			}
			return String(b.String()), nil
		}},
		"starts-with": {2, 2, func(ctx *evalCtx, args []Value) (Value, error) {
			return Boolean(strings.HasPrefix(valueStr(ctx, args[0]), valueStr(ctx, args[1]))), nil
		}},
		"contains": {2, 2, func(ctx *evalCtx, args []Value) (Value, error) {
			return Boolean(strings.Contains(valueStr(ctx, args[0]), valueStr(ctx, args[1]))), nil
		}},
		"substring-before": {2, 2, func(ctx *evalCtx, args []Value) (Value, error) {
			s, sep := valueStr(ctx, args[0]), valueStr(ctx, args[1])
			if i := strings.Index(s, sep); i >= 0 {
				return String(s[:i]), nil
			}
			return String(""), nil
		}},
		"substring-after": {2, 2, func(ctx *evalCtx, args []Value) (Value, error) {
			s, sep := valueStr(ctx, args[0]), valueStr(ctx, args[1])
			if i := strings.Index(s, sep); i >= 0 {
				return String(s[i+len(sep):]), nil
			}
			return String(""), nil
		}},
		"substring": {2, 3, substringFunc},
		"string-length": {0, 1, func(ctx *evalCtx, args []Value) (Value, error) {
			if len(args) == 0 {
				return Number(len([]rune(ctx.sec.StringValue(ctx.node)))), nil
			}
			return Number(len([]rune(valueStr(ctx, args[0])))), nil
		}},
		"normalize-space": {0, 1, func(ctx *evalCtx, args []Value) (Value, error) {
			s := ""
			if len(args) == 0 {
				s = ctx.sec.StringValue(ctx.node)
			} else {
				s = valueStr(ctx, args[0])
			}
			return String(strings.Join(strings.Fields(s), " ")), nil
		}},
		"translate": {3, 3, func(ctx *evalCtx, args []Value) (Value, error) {
			src, from, to := valueStr(ctx, args[0]), []rune(valueStr(ctx, args[1])), []rune(valueStr(ctx, args[2]))
			mapping := make(map[rune]rune, len(from))
			remove := make(map[rune]bool)
			for i, r := range from {
				if _, seen := mapping[r]; seen || remove[r] {
					continue
				}
				if i < len(to) {
					mapping[r] = to[i]
				} else {
					remove[r] = true
				}
			}
			var b strings.Builder
			for _, r := range src {
				if remove[r] {
					continue
				}
				if m, ok := mapping[r]; ok {
					b.WriteRune(m)
				} else {
					b.WriteRune(r)
				}
			}
			return String(b.String()), nil
		}},
		"boolean": {1, 1, func(_ *evalCtx, args []Value) (Value, error) {
			return Boolean(args[0].Bool()), nil
		}},
		"not": {1, 1, func(_ *evalCtx, args []Value) (Value, error) {
			return Boolean(!args[0].Bool()), nil
		}},
		"true": {0, 0, func(_ *evalCtx, _ []Value) (Value, error) {
			return Boolean(true), nil
		}},
		"false": {0, 0, func(_ *evalCtx, _ []Value) (Value, error) {
			return Boolean(false), nil
		}},
		"number": {0, 1, func(ctx *evalCtx, args []Value) (Value, error) {
			if len(args) == 0 {
				return Number(parseNumber(ctx.sec.StringValue(ctx.node))), nil
			}
			if ns, ok := args[0].(NodeSet); ok {
				if len(ns) == 0 {
					return Number(parseNumber("")), nil
				}
				return Number(parseNumber(ctx.sec.StringValue(ns[0]))), nil
			}
			return Number(args[0].Num()), nil
		}},
		"sum": {1, 1, func(ctx *evalCtx, args []Value) (Value, error) {
			ns, ok := args[0].(NodeSet)
			if !ok {
				return nil, fmt.Errorf("xpath: sum() requires a node-set, got %s", args[0].TypeName())
			}
			total := 0.0
			for _, n := range ns {
				total += parseNumber(ctx.sec.StringValue(n))
			}
			return Number(total), nil
		}},
		"floor": {1, 1, func(_ *evalCtx, args []Value) (Value, error) {
			return Number(math.Floor(args[0].Num())), nil
		}},
		"ceiling": {1, 1, func(_ *evalCtx, args []Value) (Value, error) {
			return Number(math.Ceil(args[0].Num())), nil
		}},
		"round": {1, 1, func(_ *evalCtx, args []Value) (Value, error) {
			f := args[0].Num()
			if math.IsNaN(f) || math.IsInf(f, 0) {
				return Number(f), nil
			}
			// XPath rounds half towards +infinity.
			return Number(math.Floor(f + 0.5)), nil
		}},
	}
}

// nameFunc implements name()/local-name(): with no argument it names the
// context node; with a node-set argument it names the first node in
// document order. Names observe the security filter's effective labels
// (e.g. RESTRICTED), matching what the user's view would answer.
func nameFunc(ctx *evalCtx, args []Value) (Value, error) {
	node := ctx.node
	if len(args) > 0 {
		ns, ok := args[0].(NodeSet)
		if !ok {
			return nil, fmt.Errorf("xpath: name() requires a node-set, got %s", args[0].TypeName())
		}
		if len(ns) == 0 {
			return String(""), nil
		}
		node = ns[0]
	}
	return String(nodeName(ctx, node)), nil
}

// nodeName is the name() of node: its effective label for an element or
// an attribute, "" for any other node.
func nodeName(ctx *evalCtx, node *xmltree.Node) string {
	switch node.Kind() {
	case xmltree.KindElement, xmltree.KindAttribute:
		return ctx.sec.EffectiveLabel(node)
	default:
		return ""
	}
}

// contextName reports whether e is name() or local-name() of the context
// node.
func contextName(e expr) bool {
	f, ok := e.(*funcCall)
	return ok && len(f.args) == 0 && (f.name == "name" || f.name == "local-name")
}

// valueStr converts an argument value to a string, routing node-sets
// through the security filter.
func valueStr(ctx *evalCtx, v Value) string {
	if ns, ok := v.(NodeSet); ok {
		if len(ns) == 0 {
			return ""
		}
		return ctx.sec.StringValue(ns[0])
	}
	return v.Str()
}

// substringFunc implements substring() with the spec's rounding and NaN
// corner cases (1-based positions).
func substringFunc(ctx *evalCtx, args []Value) (Value, error) {
	runes := []rune(valueStr(ctx, args[0]))
	start := math.Floor(args[1].Num() + 0.5)
	end := math.Inf(1)
	if len(args) == 3 {
		end = start + math.Floor(args[2].Num()+0.5)
	}
	if math.IsNaN(start) || math.IsNaN(end) {
		return String(""), nil
	}
	var b strings.Builder
	for i, r := range runes {
		pos := float64(i + 1)
		if pos >= start && pos < end {
			b.WriteRune(r)
		}
	}
	return String(b.String()), nil
}

// funcCall evaluation lives here to keep the function table and its
// consumers together.
func (f *funcCall) eval(ctx *evalCtx) (Value, error) {
	args := make([]Value, len(f.args))
	for i, a := range f.args {
		v, err := a.eval(ctx)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	return f.fn.impl(ctx, args)
}
