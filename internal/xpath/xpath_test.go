package xpath

import (
	"math"
	"strings"
	"testing"

	"securexml/internal/xmltree"
)

const bookXML = `<library>
  <book year="2001" lang="en">
    <title>Go in Practice</title>
    <author>Ann</author>
    <author>Bob</author>
    <price>30</price>
  </book>
  <book year="1999">
    <title>Datalog Rising</title>
    <author>Cid</author>
    <price>55.5</price>
  </book>
  <journal year="2001">
    <title>XML Security</title>
    <price>12</price>
  </journal>
</library>`

func doc(t *testing.T) *xmltree.Document {
	t.Helper()
	d, err := xmltree.ParseString(bookXML, xmltree.ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// sel evaluates path on the document and returns the node-set.
func sel(t *testing.T, d *xmltree.Document, path string, vars Vars) NodeSet {
	t.Helper()
	ns, err := Select(d, path, vars)
	if err != nil {
		t.Fatalf("Select(%q): %v", path, err)
	}
	return ns
}

func names(ns NodeSet) []string {
	out := make([]string, len(ns))
	for i, n := range ns {
		switch n.Kind() {
		case xmltree.KindText:
			out[i] = "text:" + n.Label()
		case xmltree.KindAttribute:
			out[i] = "@" + n.Label()
		default:
			out[i] = n.Label()
		}
	}
	return out
}

func wantNames(t *testing.T, path string, got NodeSet, want ...string) {
	t.Helper()
	gotN := names(got)
	if len(gotN) != len(want) {
		t.Fatalf("%s: got %v, want %v", path, gotN, want)
	}
	for i := range want {
		if gotN[i] != want[i] {
			t.Fatalf("%s: got %v, want %v", path, gotN, want)
		}
	}
}

func TestSelectBasicPaths(t *testing.T) {
	d := doc(t)
	cases := []struct {
		path string
		want []string
	}{
		{"/library", []string{"library"}},
		{"/library/book", []string{"book", "book"}},
		{"/library/book/title", []string{"title", "title"}},
		{"/library/*", []string{"book", "book", "journal"}},
		{"/library/book/author/text()", []string{"text:Ann", "text:Bob", "text:Cid"}},
		{"//title", []string{"title", "title", "title"}},
		{"//book//text()", []string{"text:Go in Practice", "text:Ann", "text:Bob", "text:30", "text:Datalog Rising", "text:Cid", "text:55.5"}},
		{"/", []string{"/"}},
		{"/library/missing", nil},
		{"//journal/title", []string{"title"}},
	}
	for _, tc := range cases {
		wantNames(t, tc.path, sel(t, d, tc.path, nil), tc.want...)
	}
}

func TestSelectAxes(t *testing.T) {
	d := doc(t)
	cases := []struct {
		path string
		want []string
	}{
		{"/library/book[1]/child::author", []string{"author", "author"}},
		{"/library/book[1]/descendant::text()", []string{"text:Go in Practice", "text:Ann", "text:Bob", "text:30"}},
		{"//price/parent::*", []string{"book", "book", "journal"}},
		{"//author/ancestor::*", []string{"library", "book", "book"}},
		{"//author/ancestor-or-self::*", []string{"library", "book", "author", "author", "book", "author"}},
		{"/library/book[1]/following-sibling::*", []string{"book", "journal"}},
		{"/library/journal/preceding-sibling::*", []string{"book", "book"}},
		{"/library/book[2]/following::*", []string{"journal", "title", "price"}},
		{"/library/journal/preceding::title", []string{"title", "title"}},
		{"//title/self::title", []string{"title", "title", "title"}},
		{"/library/descendant-or-self::journal", []string{"journal"}},
		{"//book/attribute::year", []string{"@year", "@year"}},
		{"//book/@*", []string{"@year", "@lang", "@year"}},
		{"//@lang", []string{"@lang"}},
	}
	for _, tc := range cases {
		wantNames(t, tc.path, sel(t, d, tc.path, nil), tc.want...)
	}
}

func TestSelectPredicates(t *testing.T) {
	d := doc(t)
	cases := []struct {
		path string
		want []string
	}{
		{"/library/book[1]/title/text()", []string{"text:Go in Practice"}},
		{"/library/book[2]/title/text()", []string{"text:Datalog Rising"}},
		{"/library/book[last()]/title/text()", []string{"text:Datalog Rising"}},
		{"/library/book[position() = 2]/title/text()", []string{"text:Datalog Rising"}},
		{"/library/book[position() > 1]/title/text()", []string{"text:Datalog Rising"}},
		{"//book[author = 'Cid']/title/text()", []string{"text:Datalog Rising"}},
		{"//book[price > 40]/title/text()", []string{"text:Datalog Rising"}},
		{"//book[price < 40]/title/text()", []string{"text:Go in Practice"}},
		{"//book[@year = '2001']/title/text()", []string{"text:Go in Practice"}},
		{"//book[@lang]/title/text()", []string{"text:Go in Practice"}},
		{"//book[not(@lang)]/title/text()", []string{"text:Datalog Rising"}},
		{"//book[count(author) = 2]/title/text()", []string{"text:Go in Practice"}},
		{"//book[author][price > 40]/title/text()", []string{"text:Datalog Rising"}},
		{"//*[title = 'XML Security']", []string{"journal"}},
		{"//book[author = 'Ann' and price = 30]/title/text()", []string{"text:Go in Practice"}},
		{"//book[author = 'Zed' or @year = '1999']/title/text()", []string{"text:Datalog Rising"}},
	}
	for _, tc := range cases {
		wantNames(t, tc.path, sel(t, d, tc.path, nil), tc.want...)
	}
}

// TestReverseAxisPositions checks proximity positions on reverse axes:
// ancestor::*[1] is the nearest ancestor, preceding-sibling::*[1] the
// closest preceding sibling.
func TestReverseAxisPositions(t *testing.T) {
	d := doc(t)
	wantNames(t, "anc1", sel(t, d, "//author[1]/ancestor::*[1]", nil), "book", "book")
	wantNames(t, "anc2", sel(t, d, "//price/ancestor::*[2]", nil), "library")
	wantNames(t, "prec", sel(t, d, "/library/journal/preceding-sibling::*[1]/title/text()", nil),
		"text:Datalog Rising")
	wantNames(t, "precLast", sel(t, d, "/library/journal/preceding-sibling::*[last()]/title/text()", nil),
		"text:Go in Practice")
}

func TestSelectUnion(t *testing.T) {
	d := doc(t)
	got := sel(t, d, "//journal/title | //book[1]/title | //journal/title", nil)
	wantNames(t, "union", got, "title", "title")
	// Union result must be in document order regardless of operand order.
	if xmltree.CompareDocOrder(got[0], got[1]) >= 0 {
		t.Error("union result not in document order")
	}
}

func TestSelectAbbreviations(t *testing.T) {
	d := doc(t)
	wantNames(t, "dot", sel(t, d, "/library/.", nil), "library")
	wantNames(t, "dotdot", sel(t, d, "/library/book[1]/..", nil), "library")
	wantNames(t, "dotdotslash", sel(t, d, "//price/../title", nil), "title", "title", "title")
	wantNames(t, "descabbr", sel(t, d, "/library//author", nil), "author", "author", "author")
	wantNames(t, "slashslashroot", sel(t, d, "//library", nil), "library")
	wantNames(t, "attrpred", sel(t, d, "//*[@year='1999']", nil), "book")
}

func TestVariables(t *testing.T) {
	d := doc(t)
	vars := Vars{"USER": String("Cid"), "limit": Number(40)}
	wantNames(t, "varstr", sel(t, d, "//book[author = $USER]/title/text()", vars), "text:Datalog Rising")
	wantNames(t, "varnum", sel(t, d, "//book[price > $limit]/title/text()", vars), "text:Datalog Rising")
	// The paper's rule-5 pattern: select the subtree of the element named $USER.
	vars2 := Vars{"USER": String("book")}
	got := sel(t, d, "/library/*[name() = $USER]", vars2)
	wantNames(t, "byname", got, "book", "book")
	if _, err := Select(d, "//book[$undefined]", nil); err == nil {
		t.Error("undefined variable did not error")
	}
}

func TestEvalAtomicResults(t *testing.T) {
	d := doc(t)
	cases := []struct {
		path string
		want Value
	}{
		{"count(//book)", Number(2)},
		{"count(//author)", Number(3)},
		{"sum(//price)", Number(97.5)},
		{"1 + 2 * 3", Number(7)},
		{"(1 + 2) * 3", Number(9)},
		{"10 div 4", Number(2.5)},
		{"10 mod 4", Number(2)},
		{"-5 + 2", Number(-3)},
		{"2 > 1", Boolean(true)},
		{"2 = 2 and 3 = 4", Boolean(false)},
		{"2 = 2 or 3 = 4", Boolean(true)},
		{"'abc' = 'abc'", Boolean(true)},
		{"'abc' != 'abc'", Boolean(false)},
		{"string(//book[1]/price)", String("30")},
		{"string(3.0)", String("3")},
		{"string(0.5)", String("0.5")},
		{"concat('a', 'b', 'c')", String("abc")},
		{"starts-with('hello', 'he')", Boolean(true)},
		{"contains('hello', 'ell')", Boolean(true)},
		{"substring-before('1999/04/01', '/')", String("1999")},
		{"substring-after('1999/04/01', '/')", String("04/01")},
		{"substring('12345', 2, 3)", String("234")},
		{"substring('12345', 2)", String("2345")},
		{"substring('12345', 1.5, 2.6)", String("234")},
		{"string-length('hello')", Number(5)},
		{"normalize-space('  a   b  ')", String("a b")},
		{"translate('bar', 'abc', 'ABC')", String("BAr")},
		{"translate('--aaa--', 'abc-', 'ABC')", String("AAA")},
		{"boolean(//book)", Boolean(true)},
		{"boolean(//nothing)", Boolean(false)},
		{"not(false())", Boolean(true)},
		{"true()", Boolean(true)},
		{"false()", Boolean(false)},
		{"number('12.5')", Number(12.5)},
		{"floor(2.7)", Number(2)},
		{"ceiling(2.1)", Number(3)},
		{"round(2.5)", Number(3)},
		{"round(-2.5)", Number(-2)},
		{"name(//book[1]/..)", String("library")},
		{"local-name(//@lang)", String("lang")},
	}
	for _, tc := range cases {
		c, err := Compile(tc.path)
		if err != nil {
			t.Errorf("Compile(%q): %v", tc.path, err)
			continue
		}
		got, err := c.Eval(d.Root(), nil)
		if err != nil {
			t.Errorf("Eval(%q): %v", tc.path, err)
			continue
		}
		if got != tc.want {
			t.Errorf("Eval(%q) = %v (%s), want %v", tc.path, got, got.TypeName(), tc.want)
		}
	}
}

func TestNumberStringEdgeCases(t *testing.T) {
	cases := []struct {
		expr string
		want string
	}{
		{"string(1 div 0)", "Infinity"},
		{"string(-1 div 0)", "-Infinity"},
		{"string(0 div 0)", "NaN"},
		{"string(number('abc'))", "NaN"},
		{"string(-0.0)", "0"},
		{"string(1000000)", "1000000"},
	}
	d := doc(t)
	for _, tc := range cases {
		c := MustCompile(tc.expr)
		got, err := c.Eval(d.Root(), nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.expr, err)
		}
		if got.Str() != tc.want {
			t.Errorf("%s = %q, want %q", tc.expr, got.Str(), tc.want)
		}
	}
	if !math.IsNaN(String("").Num()) {
		t.Error("number('') should be NaN")
	}
}

func TestNodeSetComparisons(t *testing.T) {
	d := doc(t)
	cases := []struct {
		expr string
		want bool
	}{
		{"//author = 'Ann'", true},                // exists an author 'Ann'
		{"//author = 'Zed'", false},               //
		{"//author != 'Ann'", true},               // exists an author that isn't Ann
		{"//price > 50", true},                    //
		{"//price > 100", false},                  //
		{"//price < 20", true},                    // journal price 12
		{"30 = //price", true},                    // swapped operands
		{"//book/title = //journal/title", false}, // no common string value
		{"//book/author = //book/author", true},   //
		{"//missing = //missing", false},          // empty sets never compare equal
		{"//book = true()", true},                 // boolean(nodeset)
		{"//missing = false()", true},             //
	}
	for _, tc := range cases {
		c := MustCompile(tc.expr)
		got, err := c.Eval(d.Root(), nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.expr, err)
		}
		if got.Bool() != tc.want {
			t.Errorf("%s = %v, want %v", tc.expr, got.Bool(), tc.want)
		}
	}
}

func TestFilterExpressions(t *testing.T) {
	d := doc(t)
	vars := Vars{"books": nil}
	// Bind $books to a node-set, then filter and step from it.
	ns := sel(t, d, "//book", nil)
	vars["books"] = ns
	wantNames(t, "filter", sel(t, d, "$books[2]/title/text()", vars), "text:Datalog Rising")
	wantNames(t, "filterstep", sel(t, d, "$books/author[1]/text()", vars), "text:Ann", "text:Cid")
	wantNames(t, "paren", sel(t, d, "(//book | //journal)[3]", vars), "journal")
	wantNames(t, "parenslash", sel(t, d, "(//book)[1]/title", vars), "title")
	wantNames(t, "filterdesc", sel(t, d, "$books[1]//text()", vars),
		"text:Go in Practice", "text:Ann", "text:Bob", "text:30")
	// Variable node-set must not be mutated by predicate filtering.
	if len(ns) != 2 {
		t.Fatalf("variable node-set was mutated: %v", names(ns))
	}
}

func TestMatches(t *testing.T) {
	d := doc(t)
	c := MustCompile("//book[price > 40]")
	book2 := sel(t, d, "/library/book[2]", nil)[0]
	book1 := sel(t, d, "/library/book[1]", nil)[0]
	if ok, err := c.Matches(book2, nil); err != nil || !ok {
		t.Errorf("Matches(book2) = %v, %v; want true", ok, err)
	}
	if ok, err := c.Matches(book1, nil); err != nil || ok {
		t.Errorf("Matches(book1) = %v, %v; want false", ok, err)
	}
}

func TestSelectOnSubtreeContext(t *testing.T) {
	d := doc(t)
	book1 := sel(t, d, "/library/book[1]", nil)[0]
	c := MustCompile("author")
	ns, err := c.Select(book1, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantNames(t, "relative", ns, "author", "author")
	// Absolute paths escape to the root even from a subtree context.
	c2 := MustCompile("/library/journal")
	ns2, err := c2.Select(book1, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantNames(t, "absolute-from-subtree", ns2, "journal")
}

func TestCompileErrors(t *testing.T) {
	bad := []string{
		"",
		"//book[",
		"//book]",
		"/library/",
		"1 +",
		"@",
		"foo(",
		"unknownfn()",
		"//book[price >]",
		"'unterminated",
		"$",
		"$ x",
		"!",
		"!=3",
		"//book[1]extra",
		"::",
		"a:b",
		"child::",
		"badaxis::x",
		"//book[position( = 1]",
		"processing-instruction('x'",
		"count()",
		"count(1, 2)",
		"not()",
		"concat('one')",
	}
	for _, src := range bad {
		if _, err := Compile(src); err == nil {
			t.Errorf("Compile(%q): expected error", src)
		}
	}
}

func TestCompileErrorHasPosition(t *testing.T) {
	_, err := Compile("//book[price >]")
	if err == nil {
		t.Fatal("expected error")
	}
	var se *SyntaxError
	if !asSyntaxError(err, &se) {
		t.Fatalf("error %T is not a *SyntaxError", err)
	}
	if se.Pos <= 0 || !strings.Contains(se.Error(), "offset") {
		t.Errorf("syntax error lacks position info: %v", se)
	}
}

func asSyntaxError(err error, target **SyntaxError) bool {
	se, ok := err.(*SyntaxError)
	if ok {
		*target = se
	}
	return ok
}

func TestEvalTypeErrors(t *testing.T) {
	d := doc(t)
	cases := []string{
		"count('str')", // count of non-node-set
		"sum(1)",       // sum of non-node-set
		"name(3)",      // name of non-node-set
		"'a' | //book", // union with atomic
		"('str')[1]",   // predicate on atomic
		"('str')/x",    // path step on atomic
	}
	for _, src := range cases {
		c, err := Compile(src)
		if err != nil {
			t.Errorf("Compile(%q) failed at parse time: %v", src, err)
			continue
		}
		if _, err := c.Eval(d.Root(), nil); err == nil {
			t.Errorf("Eval(%q): expected runtime type error", src)
		}
	}
	if _, err := Select(d, "1 + 1", nil); err == nil {
		t.Error("Select of numeric expression should fail with ErrNotNodeSet")
	}
}

func TestStringRendering(t *testing.T) {
	// The normalized rendering must itself be parseable (idempotence).
	exprs := []string{
		"//book[price > 40]/title",
		"/library/book[1]/following-sibling::*",
		"count(//book) + 2 * 3",
		"//book[@year = '2001' and not(@lang)]",
		"(//book | //journal)[last()]",
		"-(3)",
		"substring('abc', 1, 2)",
	}
	for _, src := range exprs {
		c := MustCompile(src)
		rendered := c.String()
		c2, err := Compile(rendered)
		if err != nil {
			t.Errorf("rendering of %q is not reparseable: %q: %v", src, rendered, err)
			continue
		}
		if c2.String() != rendered {
			t.Errorf("rendering not stable: %q -> %q -> %q", src, rendered, c2.String())
		}
	}
}

func TestWhitespaceTolerance(t *testing.T) {
	d := doc(t)
	a := sel(t, d, "//book[price>40]/title", nil)
	b := sel(t, d, " //book[ price > 40 ] /title ", nil)
	if len(a) != 1 || len(b) != 1 || a[0] != b[0] {
		t.Error("whitespace changes the result")
	}
}

func TestOperatorNameDisambiguation(t *testing.T) {
	// Elements named like operators must still be addressable.
	d, err := xmltree.ParseString("<r><and>1</and><or>2</or><div>3</div><mod>4</mod></r>", xmltree.ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"and", "or", "div", "mod"} {
		ns := sel(t, d, "/r/"+name, nil)
		if len(ns) != 1 {
			t.Errorf("element <%s> not selectable", name)
		}
	}
	// And they act as operators after an operand.
	v, err := MustCompile("/r/div div /r/mod").Eval(d.Root(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.Num() != 0.75 {
		t.Errorf("div operator = %v, want 0.75", v.Num())
	}
}

func TestRestrictedIsPlainNameTest(t *testing.T) {
	// §4.4.2: users express paths against their view, which may contain
	// RESTRICTED labels; RESTRICTED must lex as an ordinary name.
	d, err := xmltree.ParseString("<r><RESTRICTED><x>1</x></RESTRICTED></r>", xmltree.ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ns := sel(t, d, "/r/RESTRICTED/x", nil)
	if len(ns) != 1 {
		t.Error("RESTRICTED name test failed")
	}
}

func TestPositionOnDescendantAxis(t *testing.T) {
	d := doc(t)
	// //author[1]: first author of EACH book (per-step semantics).
	wantNames(t, "perstep", sel(t, d, "//author[1]/text()", nil), "text:Ann", "text:Cid")
	// (//author)[1]: globally first author.
	wantNames(t, "global", sel(t, d, "(//author)[1]/text()", nil), "text:Ann")
}

func TestSelfAxisOnAttributes(t *testing.T) {
	d := doc(t)
	wantNames(t, "attrself", sel(t, d, "//@year/self::node()", nil), "@year", "@year", "@year")
	// Attribute string values flow into comparisons.
	v, err := MustCompile("//book[1]/@year + 1").Eval(d.Root(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.Num() != 2002 {
		t.Errorf("@year + 1 = %v", v.Num())
	}
}

// TestIndexFastPathMatchesWalk: absolute //name answers must be identical
// with and without the element-name index fast path — checked by comparing
// against the equivalent spelled-out path that does not trigger it, across
// documents mutated between queries.
func TestIndexFastPathMatchesWalk(t *testing.T) {
	d := doc(t)
	pairs := [][2]string{
		{"//book", "/descendant-or-self::*/self::book"},
		{"//title", "/descendant-or-self::*/self::title"},
		{"//author", "/descendant-or-self::*/self::author"},
		{"//missing", "/descendant-or-self::*/self::missing"},
		{"//book/title", "/descendant-or-self::*/self::book/title"},
	}
	check := func() {
		t.Helper()
		for _, pr := range pairs {
			fast := sel(t, d, pr[0], nil)
			slow := sel(t, d, pr[1], nil)
			if len(fast) != len(slow) {
				t.Fatalf("%s: fast %d nodes, walk %d", pr[0], len(fast), len(slow))
			}
			for i := range fast {
				if fast[i] != slow[i] {
					t.Fatalf("%s: node %d differs", pr[0], i)
				}
			}
		}
	}
	check()
	// Mutations must keep the index fresh: rename, remove, insert.
	book1 := sel(t, d, "/library/book[1]", nil)[0]
	if err := d.Rename(book1, "tome"); err != nil {
		t.Fatal(err)
	}
	if got := sel(t, d, "//tome", nil); len(got) != 1 {
		t.Fatalf("renamed element not found via index: %d", len(got))
	}
	if got := sel(t, d, "//book", nil); len(got) != 1 {
		t.Fatalf("index kept stale name: %d books", len(got))
	}
	check()
	if err := d.Remove(sel(t, d, "/library/journal", nil)[0]); err != nil {
		t.Fatal(err)
	}
	if got := sel(t, d, "//journal", nil); len(got) != 0 {
		t.Fatal("removed element still indexed")
	}
	lib := d.RootElement()
	if _, err := d.AppendChild(lib, xmltree.KindElement, "book"); err != nil {
		t.Fatal(err)
	}
	if got := sel(t, d, "//book", nil); len(got) != 2 {
		t.Fatalf("inserted element not indexed: %d", len(got))
	}
	check()
}

// TestIndexFastPathSkipsUnsupportedShapes: positional predicates on the
// name step have per-parent semantics and must not take the indexed path.
func TestIndexFastPathSkipsUnsupportedShapes(t *testing.T) {
	d := doc(t)
	// //author[1] = first author of EACH book (2 results, not 1).
	wantNames(t, "posfast", sel(t, d, "//author[1]/text()", nil), "text:Ann", "text:Cid")
	// Relative paths never use the index.
	book := sel(t, d, "/library/book[1]", nil)[0]
	c := MustCompile(".//author")
	ns, err := c.Select(book, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ns) != 2 {
		t.Fatalf("relative .//author = %d nodes", len(ns))
	}
}

// TestUsesVariable covers every expression position a variable can hide in.
func TestUsesVariable(t *testing.T) {
	cases := []struct {
		src  string
		uses bool
	}{
		{"/patients/*[name() = $USER]", true},
		{"$USER", true},
		{"//diagnosis[contains($USER, 'a')]", true},
		{"//a[$OTHER = 1]", false},
		{"/patients/*[name() = concat($USER, '')]", true},
		{"//diagnosis/node()", false},
		{"count(//a[. = $USER])", true},
		{"-$USER", true},
		{"($USER)[1]/x", true},
		{"//a | //b[$USER]", true},
	}
	for _, tc := range cases {
		c, err := Compile(tc.src)
		if err != nil {
			t.Fatalf("%s: %v", tc.src, err)
		}
		if got := c.UsesVariable("USER"); got != tc.uses {
			t.Errorf("UsesVariable(%q, USER) = %v, want %v", tc.src, got, tc.uses)
		}
	}
}
