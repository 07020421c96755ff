package xpath

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"securexml/internal/xmltree"
)

// Value is an XPath 1.0 value: one of Number, String, Boolean or NodeSet.
type Value interface {
	// Bool converts the value with the boolean() rules.
	Bool() bool
	// Num converts the value with the number() rules.
	Num() float64
	// Str converts the value with the string() rules.
	Str() string
	// TypeName names the XPath type for error messages.
	TypeName() string
}

// Number is an XPath number (IEEE 754 double).
type Number float64

// Bool implements Value: a number is true unless zero or NaN.
func (n Number) Bool() bool { f := float64(n); return f != 0 && !math.IsNaN(f) }

// Num implements Value.
func (n Number) Num() float64 { return float64(n) }

// Str implements Value with the XPath number→string rules.
func (n Number) Str() string { return formatNumber(float64(n)) }

// TypeName implements Value.
func (n Number) TypeName() string { return "number" }

// String is an XPath string.
type String string

// Bool implements Value: a string is true when non-empty.
func (s String) Bool() bool { return len(s) > 0 }

// Num implements Value with the XPath string→number rules (leading/trailing
// whitespace allowed; anything unparseable is NaN).
func (s String) Num() float64 { return parseNumber(string(s)) }

// Str implements Value.
func (s String) Str() string { return string(s) }

// TypeName implements Value.
func (s String) TypeName() string { return "string" }

// Boolean is an XPath boolean.
type Boolean bool

// Bool implements Value.
func (b Boolean) Bool() bool { return bool(b) }

// Num implements Value: true is 1, false is 0.
func (b Boolean) Num() float64 {
	if b {
		return 1
	}
	return 0
}

// Str implements Value.
func (b Boolean) Str() string {
	if b {
		return "true"
	}
	return "false"
}

// TypeName implements Value.
func (b Boolean) TypeName() string { return "boolean" }

// NodeSet is a set of nodes in document order without duplicates.
type NodeSet []*xmltree.Node

// Bool implements Value: a node-set is true when non-empty.
func (ns NodeSet) Bool() bool { return len(ns) > 0 }

// Num implements Value: number(string(ns)).
func (ns NodeSet) Num() float64 { return parseNumber(ns.Str()) }

// Str implements Value: the string-value of the first node in document
// order, or "" for the empty set.
func (ns NodeSet) Str() string {
	if len(ns) == 0 {
		return ""
	}
	return ns[0].StringValue()
}

// TypeName implements Value.
func (ns NodeSet) TypeName() string { return "node-set" }

// formatNumber renders a float with the XPath 1.0 number→string rules.
func formatNumber(f float64) string {
	switch {
	case math.IsNaN(f):
		return "NaN"
	case math.IsInf(f, 1):
		return "Infinity"
	case math.IsInf(f, -1):
		return "-Infinity"
	case f == 0:
		return "0" // both zeroes render as "0" per XPath 1.0 §4.2
	case f == math.Trunc(f) && math.Abs(f) < 1e15:
		return strconv.FormatFloat(f, 'f', 0, 64)
	default:
		return strconv.FormatFloat(f, 'g', -1, 64)
	}
}

// parseNumber implements the XPath string→number conversion.
func parseNumber(s string) float64 {
	t := strings.TrimSpace(s)
	if t == "" {
		return math.NaN()
	}
	f, err := strconv.ParseFloat(t, 64)
	if err != nil {
		var ne *strconv.NumError
		if errors.As(err, &ne) && ne.Err == strconv.ErrRange {
			return f // IEEE overflow/underflow keeps the clamped value
		}
		return math.NaN()
	}
	return f
}

// compareValues implements the XPath 1.0 comparison semantics for =, !=, <,
// <=, >, >=, including the existential semantics when node-sets are
// involved. Node string-values are computed under the security filter so
// that filtered queries observe effective (possibly RESTRICTED) content.
func compareValues(op binaryOp, l, r Value, sec *Security) (bool, error) {
	ln, lok := l.(NodeSet)
	rn, rok := r.(NodeSet)
	switch {
	case lok && rok:
		// Exists a pair of nodes whose string-values satisfy the comparison.
		for _, a := range ln {
			av := sec.StringValue(a)
			for _, b := range rn {
				ok, err := compareAtomic(op, String(av), String(sec.StringValue(b)))
				if err != nil {
					return false, err
				}
				if ok {
					return true, nil
				}
			}
		}
		return false, nil
	case lok:
		return compareNodeSetAtomic(op, ln, r, false, sec)
	case rok:
		return compareNodeSetAtomic(op, rn, l, true, sec)
	default:
		return compareAtomic(op, l, r)
	}
}

// compareNodeSetAtomic compares a node-set against an atomic value; swapped
// indicates the node-set was the right operand (relational operators must be
// mirrored).
func compareNodeSetAtomic(op binaryOp, ns NodeSet, atom Value, swapped bool, sec *Security) (bool, error) {
	if b, ok := atom.(Boolean); ok {
		// boolean(node-set) against the boolean.
		return compareAtomic(op, Boolean(ns.Bool()), b)
	}
	for _, n := range ns {
		var nodeVal Value
		switch atom.(type) {
		case Number:
			nodeVal = Number(parseNumber(sec.StringValue(n)))
		default:
			nodeVal = String(sec.StringValue(n))
		}
		l, r := nodeVal, atom
		if swapped {
			l, r = atom, nodeVal
		}
		ok, err := compareAtomic(op, l, r)
		if err != nil {
			return false, err
		}
		if ok {
			return true, nil
		}
	}
	return false, nil
}

// compareAtomic compares two non-node-set values.
func compareAtomic(op binaryOp, l, r Value) (bool, error) {
	switch op {
	case opEq, opNeq:
		var eq bool
		switch {
		case isBoolean(l) || isBoolean(r):
			eq = l.Bool() == r.Bool()
		case isNumber(l) || isNumber(r):
			eq = l.Num() == r.Num()
		default:
			eq = l.Str() == r.Str()
		}
		if op == opNeq {
			return !eq, nil
		}
		return eq, nil
	case opLt:
		return l.Num() < r.Num(), nil
	case opLeq:
		return l.Num() <= r.Num(), nil
	case opGt:
		return l.Num() > r.Num(), nil
	case opGeq:
		return l.Num() >= r.Num(), nil
	default:
		return false, fmt.Errorf("xpath: operator %s is not a comparison", op)
	}
}

func isBoolean(v Value) bool { _, ok := v.(Boolean); return ok }
func isNumber(v Value) bool  { _, ok := v.(Number); return ok }
