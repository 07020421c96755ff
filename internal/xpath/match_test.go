package xpath

import (
	"fmt"
	"strings"
	"testing"

	"securexml/internal/xmltree"
)

const matchDocXML = `<patients>
  <franck vip="yes"><service>otolaryngology</service><diagnosis>tonsillitis</diagnosis></franck>
  <robert><service>pneumology</service><diagnosis b="2">pneumonia</diagnosis></robert>
  <diagnosis>stray</diagnosis>
</patients>`

func matchDoc(t *testing.T) *xmltree.Document {
	t.Helper()
	d, err := xmltree.ParseString(matchDocXML, xmltree.ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestNodeMatcherAgainstSelect compares the per-node matcher with full
// evaluation for every node of the document, over expressions covering the
// whole supported fragment (including the paper's twelve rule paths).
func TestNodeMatcherAgainstSelect(t *testing.T) {
	d := matchDoc(t)
	vars := Vars{"USER": String("robert")}
	exprs := []string{
		"/",
		"/patients",
		"/patients/*",
		"/patients/franck",
		"//diagnosis",
		"//diagnosis/node()",
		"/descendant-or-self::node()",
		"/descendant::text()",
		"/patients/*/service/text()",
		"/patients/*[name() = $USER]/descendant-or-self::node()",
		"/patients/*[name() = 'franck']/diagnosis",
		"//@vip",
		"//attribute::node()",
		"//@vip/text()",
		"/patients//text()",
		"//diagnosis[starts-with(name(), 'diag')]/node()",
		"//*[contains(name(), 'serv') or name() = 'diagnosis']",
		"//*[not(name() = 'service')]",
		"//diagnosis | //service",
		"/patients/child::comment()",
		"descendant-or-self::node()", // relative: same root context
		"self::node()",
		"//*[string-length(name()) > 7]",
		"//*[translate(name(), 'abc', 'xyz') = 'servize']",
		"//*[true()]",
		"//*[false()]",
	}
	for _, src := range exprs {
		c, err := Compile(src)
		if err != nil {
			t.Fatalf("compile %q: %v", src, err)
		}
		m, ok := c.NodeMatcher()
		if !ok {
			t.Fatalf("%q: expected a NodeMatcher, got ineligible", src)
		}
		for _, n := range d.Nodes() {
			want, err := c.Matches(n, vars)
			if err != nil {
				t.Fatalf("%q Matches(%s): %v", src, n.ID(), err)
			}
			got, err := m.Match(n, vars)
			if err != nil {
				t.Fatalf("%q Match(%s): %v", src, n.ID(), err)
			}
			if got != want {
				t.Errorf("%q on %s [%s]: matcher=%v, full eval=%v", src, n.ID(), n.Path(), got, want)
			}
		}
	}
}

// TestNodeMatcherRejectsUnsupported asserts everything outside the
// fragment is refused rather than mis-answered.
func TestNodeMatcherRejectsUnsupported(t *testing.T) {
	rejected := []string{
		"//diagnosis[2]",               // positional predicate
		"//diagnosis[position() = 1]",  // position()
		"//diagnosis[last()]",          // last()
		"//*[text() = 'pneumonia']",    // location path in predicate
		"//*[service]",                 // location path in predicate
		"//*[count(node()) > 1]",       // node-set function
		"//*[string() = 'x']",          // context string-value
		"//*[string-length() > 2]",     // context string-value
		"//*[normalize-space() = 'x']", // context string-value
		"//diagnosis/parent::*",        // upward axis
		"//diagnosis/ancestor::node()", // upward axis
		"//diagnosis/following-sibling::node()",
		"/patients/*[$USER]",   // top-level variable (truthiness of any value)
		"//*['x']",             // top-level literal
		"$v/diagnosis",         // variable-rooted path
		"//diagnosis | //a[1]", // one union arm outside the fragment
		"count(//diagnosis)",   // not a path at all
		"//*[name(..) = 'x']",  // name with a node-set argument
		"//*[sum(node()) > 0]", // node-set function
	}
	for _, src := range rejected {
		c, err := Compile(src)
		if err != nil {
			t.Fatalf("compile %q: %v", src, err)
		}
		if _, ok := c.NodeMatcher(); ok {
			t.Errorf("%q: expected NodeMatcher to refuse, got one", src)
		}
	}
}

// TestNodeMatcherDetachedNode: nodes outside any document never match.
func TestNodeMatcherDetachedNode(t *testing.T) {
	d := matchDoc(t)
	n := d.RootElement().Children()[0] // franck
	if err := d.Remove(n); err != nil {
		t.Fatal(err)
	}
	m, ok := MustCompile("//franck").NodeMatcher()
	if !ok {
		t.Fatal("no matcher")
	}
	got, err := m.Match(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got {
		t.Error("detached node matched")
	}
}

// TestNodeMatcherUndefinedVariable: evaluation errors surface, they are
// not silently treated as non-matches.
func TestNodeMatcherUndefinedVariable(t *testing.T) {
	d := matchDoc(t)
	m, ok := MustCompile("/patients/*[name() = $USER]").NodeMatcher()
	if !ok {
		t.Fatal("no matcher")
	}
	if _, err := m.Match(d.RootElement().Children()[0], nil); err == nil {
		t.Error("want undefined-variable error, got nil")
	}
}

// TestPaperPolicyPathsAllMatchable: every path of the axiom-13 policy is
// inside the matchable fragment — the eligibility gate the incremental
// view path depends on.
func TestPaperPolicyPathsAllMatchable(t *testing.T) {
	paths := []string{
		"/descendant-or-self::node()",
		"//diagnosis/node()",
		"/patients",
		"/patients/*[name() = $USER]/descendant-or-self::node()",
		"/patients/*",
		"//diagnosis",
	}
	for _, p := range paths {
		if _, ok := MustCompile(p).NodeMatcher(); !ok {
			t.Errorf("paper rule path %q not matchable", p)
		}
	}
}

// nestedDoc builds a chain of elements l0/l1/.../l{depth-1}, each with a
// sibling element s and an attribute a, ending in a text node.
func nestedDoc(t testing.TB, depth int) *xmltree.Document {
	t.Helper()
	var b strings.Builder
	for i := 0; i < depth; i++ {
		fmt.Fprintf(&b, `<l%d a="%d"><s/>`, i, i)
	}
	b.WriteString("leaf")
	for i := depth - 1; i >= 0; i-- {
		fmt.Fprintf(&b, "</l%d>", i)
	}
	d, err := xmltree.ParseString(b.String(), xmltree.ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

var nestedExprs = []string{
	"/descendant-or-self::node()",
	"//l5//node()",
	"/l0/l1//l18/*",
	"//*[starts-with(name(), 'l1')]//text()",
	"//@a",
	"//l2//@a/text()",
	"//s | //l21/node()",
	"/l0//l20/l21",
	"//*[name() = $USER]/descendant::*",
}

// TestNodeMatcherDeepChain: chains deeper than stackChain take the heap
// fallback and must still agree with Select, through both Match and a
// caller-built chain.
func TestNodeMatcherDeepChain(t *testing.T) {
	d := nestedDoc(t, 24)
	vars := Vars{"USER": String("l3")}
	deepest := 0
	for _, src := range nestedExprs {
		c := MustCompile(src)
		m, ok := c.NodeMatcher()
		if !ok {
			t.Fatalf("%q: no matcher", src)
		}
		sel, err := c.Select(d.Root(), vars)
		if err != nil {
			t.Fatal(err)
		}
		want := map[*xmltree.Node]bool{}
		for _, n := range sel {
			want[n] = true
		}
		for _, n := range d.Nodes() {
			chain := AppendChain(nil, n)
			if len(chain) > deepest {
				deepest = len(chain)
			}
			got, err := m.Match(n, vars)
			if err != nil {
				t.Fatal(err)
			}
			viaChain, err := m.MatchChain(chain, vars)
			if err != nil {
				t.Fatal(err)
			}
			if got != want[n] || viaChain != want[n] {
				t.Errorf("%q on %s: Match=%v MatchChain=%v Select=%v", src, n.Path(), got, viaChain, want[n])
			}
		}
	}
	if deepest <= stackChain {
		t.Fatalf("deepest chain %d does not exercise the heap fallback (stackChain %d)", deepest, stackChain)
	}
}

// TestNodeMatcherMatchAllocs: a predicate-free match over a chain of at
// most stackChain nodes runs entirely on the stack.
func TestNodeMatcherMatchAllocs(t *testing.T) {
	d := nestedDoc(t, stackChain-2) // document + 14 elements + text
	var leaf *xmltree.Node
	for _, n := range d.Nodes() {
		if n.Kind() == xmltree.KindText {
			leaf = n
		}
	}
	if got := len(AppendChain(nil, leaf)); got != stackChain {
		t.Fatalf("leaf chain has %d nodes, want %d", got, stackChain)
	}
	for _, src := range []string{"/descendant-or-self::node()", "//l5//text()", "/l0/l1//l13/node() | //s", "//@a"} {
		m, ok := MustCompile(src).NodeMatcher()
		if !ok {
			t.Fatalf("%q: no matcher", src)
		}
		if allocs := testing.AllocsPerRun(100, func() { _, _ = m.Match(leaf, nil) }); allocs != 0 {
			t.Errorf("%q: Match allocated %.1f times per call", src, allocs)
		}
	}
}

// BenchmarkNodeMatcherMatch runs the paper's axiom-13 rule paths against
// every node of a 64-patient document, one matcher call per rule and
// node.
func BenchmarkNodeMatcherMatch(b *testing.B) {
	var sb strings.Builder
	sb.WriteString("<patients>")
	for i := 0; i < 64; i++ {
		fmt.Fprintf(&sb, "<p%d><service>s</service><diagnosis>d</diagnosis></p%d>", i, i)
	}
	sb.WriteString("</patients>")
	d, err := xmltree.ParseString(sb.String(), xmltree.ParseOptions{})
	if err != nil {
		b.Fatal(err)
	}
	var ms []*NodeMatcher
	for _, src := range []string{
		"/descendant-or-self::node()",
		"//diagnosis/node()",
		"/patients",
		"/patients/*[name() = $USER]/descendant-or-self::node()",
		"/patients/*",
		"//diagnosis",
	} {
		m, ok := MustCompile(src).NodeMatcher()
		if !ok {
			b.Fatalf("%q: no matcher", src)
		}
		ms = append(ms, m)
	}
	nodes := d.Nodes()
	vars := Vars{"USER": String("p7")}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, n := range nodes {
			for _, m := range ms {
				ok, err := m.Match(n, vars)
				if err != nil {
					b.Fatal(err)
				}
				matchSink = ok
			}
		}
	}
}

var matchSink bool
