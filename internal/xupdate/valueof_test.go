package xupdate

import (
	"strings"
	"testing"

	"securexml/internal/xmltree"
	"securexml/internal/xpath"
)

func TestValueOfCopiesNodes(t *testing.T) {
	d := parse(t)
	ops, err := ParseModificationsString(`
		<xupdate:modifications xmlns:xupdate="http://www.xmldb.org/xupdate">
		  <xupdate:append select="/patients">
		    <xupdate:element name="summary">
		      <xupdate:value-of select="//service"/>
		    </xupdate:element>
		  </xupdate:append>
		</xupdate:modifications>`)
	if err != nil {
		t.Fatal(err)
	}
	if !ops[0].HasDynamicContent() {
		t.Fatal("value-of not detected as dynamic content")
	}
	res, err := Execute(d, ops[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	// summary + two copied service elements + their text children.
	if res.Applied != 1 || res.Created != 5 {
		t.Fatalf("result = %+v", res)
	}
	if got := count(t, d, "/patients/summary/service"); got != 2 {
		t.Errorf("%d copied services, want 2", got)
	}
	if got := firstText(t, d, "/patients/summary/service[1]"); got != "otolaryngology" {
		t.Errorf("copied content = %q", got)
	}
	// The originals are untouched (value-of copies).
	if got := count(t, d, "/patients/franck/service"); got != 1 {
		t.Error("original service moved instead of copied")
	}
}

func TestValueOfAtomicResult(t *testing.T) {
	d := parse(t)
	ops, err := ParseModificationsString(`
		<xupdate:modifications xmlns:xupdate="http://www.xmldb.org/xupdate">
		  <xupdate:append select="/patients">
		    <xupdate:element name="stats"><xupdate:value-of select="count(//diagnosis)"/></xupdate:element>
		  </xupdate:append>
		</xupdate:modifications>`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Execute(d, ops[0], nil); err != nil {
		t.Fatal(err)
	}
	if got := firstText(t, d, "/patients/stats"); got != "2" {
		t.Errorf("stats = %q, want 2", got)
	}
}

func TestValueOfAttributeResult(t *testing.T) {
	d, err := xmltree.ParseString(`<r><e id="alpha"/><t/></r>`, xmltree.ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	frag := xmltree.NewFragment(nil)
	if err := addValueOfPlaceholder(frag, frag.Root(), "//@id"); err != nil {
		t.Fatal(err)
	}
	op := &Op{Kind: Append, Select: "/r/t", Content: frag}
	if _, err := Execute(d, op, nil); err != nil {
		t.Fatal(err)
	}
	if got := firstText(t, d, "/r/t"); got != "alpha" {
		t.Errorf("attribute value-of = %q", got)
	}
}

func TestVariableThreadsThroughSequence(t *testing.T) {
	d := parse(t)
	ops, err := ParseModificationsString(`
		<xupdate:modifications xmlns:xupdate="http://www.xmldb.org/xupdate">
		  <xupdate:variable name="sick" select="//diagnosis/text()"/>
		  <xupdate:append select="/patients">
		    <xupdate:element name="report"><xupdate:value-of select="$sick"/></xupdate:element>
		  </xupdate:append>
		  <xupdate:remove select="/patients/report[text() = 'nonexistent']"/>
		</xupdate:modifications>`)
	if err != nil {
		t.Fatal(err)
	}
	if ops[0].Kind != Variable || ops[0].VarName() != "sick" {
		t.Fatalf("variable op = %+v", ops[0])
	}
	results, err := ExecuteAll(d, ops, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("%d results", len(results))
	}
	if got := firstText(t, d, "/patients/report"); got != "tonsillitispneumonia" {
		t.Errorf("report = %q", got)
	}
}

func TestVariableRequiresSequence(t *testing.T) {
	d := parse(t)
	op := &Op{Kind: Variable, Select: "//diagnosis", NewValue: "x"}
	if _, err := Execute(d, op, nil); err == nil {
		t.Error("lone variable op accepted by Execute")
	}
	if err := (&Op{Kind: Variable, Select: "//x"}).Validate(); err == nil {
		t.Error("variable without name validated")
	}
	if op.Kind.String() != "xupdate:variable" {
		t.Errorf("kind string = %q", op.Kind.String())
	}
}

func TestValueOfParseErrors(t *testing.T) {
	bad := []string{
		`<xupdate:modifications xmlns:xupdate="http://www.xmldb.org/xupdate"><xupdate:append select="/x"><xupdate:value-of/></xupdate:append></xupdate:modifications>`,
		`<xupdate:modifications xmlns:xupdate="http://www.xmldb.org/xupdate"><xupdate:append select="/x"><xupdate:value-of select="//["/></xupdate:append></xupdate:modifications>`,
		`<xupdate:modifications xmlns:xupdate="http://www.xmldb.org/xupdate"><xupdate:variable select="//x"/></xupdate:modifications>`,
	}
	for _, src := range bad {
		if _, err := ParseModificationsString(src); err == nil {
			t.Errorf("accepted: %s", src)
		}
	}
}

func TestExpandContentNoPlaceholders(t *testing.T) {
	d := parse(t)
	frag, _ := xmltree.ParseString("<x/>", xmltree.ParseOptions{Fragment: true})
	op := &Op{Kind: Append, Select: "/patients", Content: frag}
	out, err := op.ExpandContent(d.Root(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out != frag {
		t.Error("static content should be returned unchanged")
	}
}

func TestExpandContentBadSelect(t *testing.T) {
	d := parse(t)
	frag := xmltree.NewFragment(nil)
	// Bypass the parser validation to hit the execution-time check.
	if _, err := frag.AppendChild(frag.Root(), xmltree.KindComment, valueOfMarker+"$undefined"); err != nil {
		t.Fatal(err)
	}
	op := &Op{Kind: Append, Select: "/patients", Content: frag}
	if _, err := Execute(d, op, nil); err == nil {
		t.Error("undefined variable in value-of accepted")
	}
	if _, err := Execute(d, op, xpath.Vars{"undefined": xpath.String("ok")}); err != nil {
		t.Errorf("bound variable rejected: %v", err)
	}
}

func TestValueOfDeepStructuresAndAttrs(t *testing.T) {
	d, err := xmltree.ParseString(`<r><src a="1"><in>deep</in></src><dst/></r>`, xmltree.ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	frag := xmltree.NewFragment(nil)
	if err := addValueOfPlaceholder(frag, frag.Root(), "//src"); err != nil {
		t.Fatal(err)
	}
	if _, err := Execute(d, &Op{Kind: Append, Select: "/r/dst", Content: frag}, nil); err != nil {
		t.Fatal(err)
	}
	ns, err := xpath.Select(d, "/r/dst/src[@a='1']/in", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ns) != 1 || ns[0].StringValue() != "deep" {
		t.Errorf("deep copy incomplete: %v", ns)
	}
}

func TestWireRoundTripWithValueOf(t *testing.T) {
	// The placeholder mechanism must not leak into serialized documents:
	// after execution the result contains plain nodes only.
	d := parse(t)
	ops, err := ParseModificationsString(`
		<xupdate:modifications xmlns:xupdate="http://www.xmldb.org/xupdate">
		  <xupdate:append select="/patients"><xupdate:element name="copy"><xupdate:value-of select="//service[1]"/></xupdate:element></xupdate:append>
		</xupdate:modifications>`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Execute(d, ops[0], nil); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(d.XML(), "value-of") || strings.Contains(d.XML(), "\x00") {
		t.Errorf("placeholder leaked into the document:\n%s", d.XML())
	}
}

// TestWriteModificationsRoundTrip: ops → wire → ops must preserve kind,
// select, values and content (including value-of placeholders).
func TestWriteModificationsRoundTrip(t *testing.T) {
	src := `<xupdate:modifications version="1.0" xmlns:xupdate="http://www.xmldb.org/xupdate">
	  <xupdate:variable name="v" select="//service"/>
	  <xupdate:rename select="//service">department</xupdate:rename>
	  <xupdate:update select="/patients/franck/diagnosis">text &amp; entities</xupdate:update>
	  <xupdate:append select="/patients">
	    <albert insured="yes &quot;sure&quot;"><service>cardio</service><xupdate:value-of select="$v"/></albert>
	  </xupdate:append>
	  <xupdate:insert-before select="/patients/franck"><x/>literal text</xupdate:insert-before>
	  <xupdate:insert-after select="/patients/franck"><y/></xupdate:insert-after>
	  <xupdate:remove select="/patients/robert"/>
	</xupdate:modifications>`
	ops, err := ParseModificationsString(src)
	if err != nil {
		t.Fatal(err)
	}
	rendered, err := ModificationsString(ops)
	if err != nil {
		t.Fatal(err)
	}
	ops2, err := ParseModificationsString(rendered)
	if err != nil {
		t.Fatalf("rendered form does not reparse: %v\n%s", err, rendered)
	}
	if len(ops2) != len(ops) {
		t.Fatalf("%d ops after round trip, want %d", len(ops2), len(ops))
	}
	for i := range ops {
		a, b := ops[i], ops2[i]
		if a.Kind != b.Kind || a.Select != b.Select || a.NewValue != b.NewValue {
			t.Errorf("op %d: %+v vs %+v", i, a, b)
		}
		if (a.Content == nil) != (b.Content == nil) {
			t.Errorf("op %d content presence differs", i)
			continue
		}
		if a.Content != nil {
			ca, errA := ModificationsString([]*Op{a})
			cb, errB := ModificationsString([]*Op{b})
			if errA != nil || errB != nil || ca != cb {
				t.Errorf("op %d content differs:\n%s\nvs\n%s", i, ca, cb)
			}
		}
	}
	// And executing both against identical documents gives identical results.
	d1, d2 := parse(t), parse(t)
	if _, err := ExecuteAll(d1, ops, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := ExecuteAll(d2, ops2, nil); err != nil {
		t.Fatal(err)
	}
	if d1.XML() != d2.XML() {
		t.Errorf("round-tripped ops diverge:\n%s\nvs\n%s", d1.XML(), d2.XML())
	}
}

func TestWriteModificationsRejectsUnknownKind(t *testing.T) {
	if _, err := ModificationsString([]*Op{{Kind: Kind(77), Select: "/x"}}); err == nil {
		t.Error("unknown kind serialized")
	}
}
