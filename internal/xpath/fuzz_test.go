package xpath

import (
	"testing"

	"securexml/internal/xmltree"
)

// FuzzCompile checks the parser never panics and that accepted expressions
// render to a stable, re-parseable normal form. Run with
// `go test -fuzz=FuzzCompile ./internal/xpath` for a real campaign; the
// seed corpus runs on every `go test`.
func FuzzCompile(f *testing.F) {
	seeds := []string{
		"/", "//*", "/a/b/c", "//a[b]", "//a[1]/b[last()]",
		"count(//x) + 1", "//a | //b | //c", "key", "'literal'", "3.14",
		"-(-3)", "a and b or c", "//a[@x = 'y'][2]",
		"/patients/*[name() = $USER]/descendant-or-self::node()",
		"ancestor-or-self::*", "..//x", "@*", "text()", "node()",
		"substring-after(concat(a, 'x'), translate(b, 'ab', 'ba'))",
		"1 div 0 > 2 mod -3", "((((x))))", "a[b[c[d]]]",
		"//RESTRICTED[. != '']", "1<2", "processing-instruction('pi')",
		"", "[", "]", ")", "a:", "$", "!", "'", "//a[", "1..2", "a-b",
		"child::", "..::x", "@@", "--1", "//*[position()=last()-1]",
		"(-0)/A", "(-1)[1]",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	doc := xmltree.MustParse("<a><b x='1'>t</b><c/></a>")
	f.Fuzz(func(t *testing.T, src string) {
		c, err := Compile(src)
		if err != nil {
			return // rejected input: fine
		}
		rendered := c.String()
		c2, err := Compile(rendered)
		if err != nil {
			t.Fatalf("accepted %q but its rendering %q does not reparse: %v", src, rendered, err)
		}
		if c2.String() != rendered {
			t.Fatalf("unstable normal form: %q -> %q -> %q", src, rendered, c2.String())
		}
		// Evaluation must not panic, whatever the expression does.
		_, _ = c.Eval(doc.Root(), Vars{"USER": String("u")})
	})
}
