package xupdate

import (
	"testing"

	"securexml/internal/xmltree"
)

// FuzzParseModifications checks the wire parser never panics, that every
// accepted operation validates or is reported as invalid — never a crash —
// and that accepted operations survive a round trip: serialized by
// ModificationsString and parsed again, they are the same operations with
// the same content trees, node for node. A journal stores an Apply in that
// serialization, so recovery replays exactly what ran.
func FuzzParseModifications(f *testing.F) {
	seeds := []string{
		wireDoc,
		`<xupdate:modifications xmlns:xupdate="http://www.xmldb.org/xupdate"/>`,
		`<xupdate:modifications><xupdate:remove select="/a"/></xupdate:modifications>`,
		`<xupdate:modifications><xupdate:update select="/a">v</xupdate:update></xupdate:modifications>`,
		`<xupdate:modifications><xupdate:append select="/a"><b/></xupdate:append></xupdate:modifications>`,
		`<wrong/>`, `<`, ``, `<xupdate:modifications>`,
		`<xupdate:modifications><xupdate:append select="/"><xupdate:element name="x"><xupdate:attribute name="a">v</xupdate:attribute></xupdate:element></xupdate:append></xupdate:modifications>`,
		`<xupdate:modifications><xupdate:append select="/a"><xupdate:text>a</xupdate:text><xupdate:text>b</xupdate:text></xupdate:append></xupdate:modifications>`,
		`<xupdate:modifications><xupdate:append select="/a">a<xupdate:text>b</xupdate:text><!--c--> d<b/><xupdate:text> </xupdate:text><xupdate:text/></xupdate:append></xupdate:modifications>`,
		`<xupdate:modifications><xupdate:insert-after select="/a"><b>x<![CDATA[<y>]]><xupdate:value-of select="$v"/>z</b></xupdate:insert-after></xupdate:modifications>`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		ops, err := ParseModificationsString(src)
		if err != nil {
			return
		}
		for _, op := range ops {
			_ = op.Validate()
		}
		text, err := ModificationsString(ops)
		if err != nil {
			t.Fatalf("parsed operations do not serialize: %v", err)
		}
		again, err := ParseModificationsString(text)
		if err != nil {
			t.Fatalf("serialization does not parse: %v\n%s", err, text)
		}
		if len(again) != len(ops) {
			t.Fatalf("%d operations came back as %d:\n%s", len(ops), len(again), text)
		}
		for i, op := range ops {
			b := again[i]
			if op.Kind != b.Kind || op.Select != b.Select || op.NewValue != b.NewValue {
				t.Fatalf("op %d: %+v came back as %+v", i, op, b)
			}
			if (op.Content == nil) != (b.Content == nil) || op.Content != nil && !sameTree(op.Content.Root(), b.Content.Root()) {
				t.Fatalf("op %d: content changed in the round trip:\n%s", i, text)
			}
		}
	})
}

// sameTree reports whether a and b are the same tree: kinds, labels,
// attribute values and children, in order.
func sameTree(a, b *xmltree.Node) bool {
	if a.Kind() != b.Kind() || a.Label() != b.Label() ||
		len(a.Attributes()) != len(b.Attributes()) || len(a.Children()) != len(b.Children()) {
		return false
	}
	for i, at := range a.Attributes() {
		bt := b.Attributes()[i]
		if at.Label() != bt.Label() || at.StringValue() != bt.StringValue() {
			return false
		}
	}
	for i, c := range a.Children() {
		if !sameTree(c, b.Children()[i]) {
			return false
		}
	}
	return true
}
