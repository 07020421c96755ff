package xmltree

import (
	"encoding/xml"
	"strings"
	"testing"
	"time"
)

// TestSerializeAttributeRoundTrip: an attribute value survives parse →
// CompactXML → parse unchanged, however often the round is repeated.
// Values are quoted as `"` + XML-escaped value + `"`, so a backslash is
// not doubled and a non-printable rune is not spelled as a Go escape.
func TestSerializeAttributeRoundTrip(t *testing.T) {
	for _, v := range []string{
		`p\q`, `\\`, "soft\u00adhyphen", "zero\u200bwidth", `say "hi"`, `it's`,
		"a<b", "a&b", "a>b", "tab\there", "line\nbreak", "cr\rreturn",
		"all\\ \u00ad\u200b\"<&\t\n",
	} {
		var esc strings.Builder
		if err := xml.EscapeText(&esc, []byte(v)); err != nil {
			t.Fatal(err)
		}
		src := `<a x="` + esc.String() + `"/>`
		for round := 0; round < 3; round++ {
			d, err := ParseString(src, ParseOptions{})
			if err != nil {
				t.Fatalf("%q, round %d: parse %s: %v", v, round, src, err)
			}
			if got, _ := d.RootElement().AttrValue("x"); got != v {
				t.Fatalf("%q, round %d: parsed %s as %q", v, round, src, got)
			}
			src = d.CompactXML()
		}
	}
}

// Element, attribute and comment labels the fuzz builder draws from; all
// reparse as themselves.
var (
	fuzzElemNames = []string{"a", "b", "record", "x.y", "n-1"}
	fuzzAttrNames = []string{"a", "id", "x-y", "q"}
	fuzzComments  = []string{"", "c", " note ", "a-b", "<&>\"'"}
)

// buildSerializeDoc builds a document under a root element from data,
// one operation per byte, a value operation reading its value from the
// bytes that follow. Adjacent text siblings and whitespace-only text are
// never built, so a well-formed reparse must give the same tree. With
// clean set, values are first made valid XML character data (as the
// serializer would make them) so that the reparse gives them back exactly.
func buildSerializeDoc(t *testing.T, data []byte, clean bool) *Document {
	d := New(nil)
	root, err := d.AppendChild(d.Root(), KindElement, "root")
	if err != nil {
		t.Fatal(err)
	}
	cur := root
	depth := 0
	value := func(i int) (string, int) {
		if i >= len(data) {
			return "", i
		}
		n := int(data[i]) % 12
		i++
		end := min(i+n, len(data))
		v := string(data[i:end])
		if clean {
			v = strings.Map(func(r rune) rune {
				if r == 0x09 || r == 0x0A || r == 0x0D || r >= 0x20 && r <= 0xD7FF ||
					r >= 0xE000 && r <= 0xFFFD || r >= 0x10000 && r <= 0x10FFFF {
					return r
				}
				return '\uFFFD'
			}, strings.ToValidUTF8(v, "\uFFFD"))
		}
		return v, end
	}
	for i := 0; i < len(data); {
		op, sel := data[i]%6, int(data[i]/6)
		i++
		switch op {
		case 0, 1: // open a child element (0) or add an empty one (1)
			if depth >= 24 {
				continue
			}
			el, err := d.AppendChild(cur, KindElement, fuzzElemNames[sel%len(fuzzElemNames)])
			if err != nil {
				t.Fatal(err)
			}
			if op == 0 {
				cur, depth = el, depth+1
			}
		case 2: // close the current element
			if cur != root {
				cur, depth = cur.parent, depth-1
			}
		case 3: // text, never next to another text node
			var v string
			v, i = value(i)
			if strings.TrimSpace(v) == "" {
				v = "t" + v
			}
			if last := cur.LastChild(); last != nil && last.kind == KindText {
				continue
			}
			if _, err := d.AppendChild(cur, KindText, v); err != nil {
				t.Fatal(err)
			}
		case 4: // attribute
			var v string
			v, i = value(i)
			if _, err := d.SetAttribute(cur, fuzzAttrNames[sel%len(fuzzAttrNames)], v); err != nil {
				t.Fatal(err)
			}
		case 5: // comment
			if _, err := d.AppendChild(cur, KindComment, fuzzComments[sel%len(fuzzComments)]); err != nil {
				t.Fatal(err)
			}
		}
	}
	return d
}

// FuzzSerialize checks the appender against the node-at-a-time writer it
// replaced (oracleXML): XML, CompactXML and Write under another indent
// unit must be byte-equal to it on documents with mixed content, nested
// elements, attributes, comments, and values holding every escapable byte
// and invalid UTF-8. Documents with valid character data must also
// reparse, pretty and compact, to the same shape.
func FuzzSerialize(f *testing.F) {
	f.Add([]byte{0, 3, 5, 'a', '<', 'b', '&', 'c', 4, 6, '"', '\'', '>', '\t', '\n', '\r', 2, 1})
	f.Add([]byte{0, 4, 11, '\\', 0xc2, 0xad, 0xe2, 0x80, 0x8b, 0x00, 0x01, 0x1f, 0x7f, 0x20, 3, 4, 'x', 0xff, 'y', 0xfe})
	f.Add([]byte{0, 0, 3, 6, 0xed, 0xa0, 0x80, 0xef, 0xbf, 0xbe, 5, 11, 1, 2, 3, 3, 0xef, 0xbf, 0xbd, 2, 17, 3, 2, 'z', ' '})
	f.Add([]byte{6, 12, 5, 0, 3, 1, ' ', 1, 2, 9, 4, 2, 0xf0, 0x9f, 8, 10, 2, 0xf4, 0x90, 0x80, 0x80})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			return
		}
		for _, clean := range []bool{false, true} {
			d := buildSerializeDoc(t, data, clean)
			outs := map[string]string{}
			for _, indent := range []string{"  ", "", "\t"} {
				want, err := oracleXML(d, indent)
				if err != nil {
					t.Fatal(err)
				}
				var got strings.Builder
				if err := d.Write(&got, WriteOptions{Indent: indent}); err != nil {
					t.Fatal(err)
				}
				if got.String() != want {
					t.Fatalf("Write(indent %q) differs from the oracle:\n got: %q\nwant: %q", indent, got.String(), want)
				}
				outs[indent] = want
			}
			if got := d.XML(); got != outs["  "] {
				t.Fatalf("XML differs from the oracle:\n got: %q\nwant: %q", got, outs["  "])
			}
			if got := d.CompactXML(); got != outs[""] {
				t.Fatalf("CompactXML differs from the oracle:\n got: %q\nwant: %q", got, outs[""])
			}
			if !clean {
				continue
			}
			for indent, out := range outs {
				d2, err := ParseString(out, ParseOptions{KeepComments: true})
				if err != nil {
					t.Fatalf("output (indent %q) does not reparse: %v\n%q", indent, err, out)
				}
				if !sameShape(d.Root(), d2.Root()) {
					t.Fatalf("output (indent %q) reparses to another tree:\n%s\nvs\n%s", indent, d.Sketch(), d2.Sketch())
				}
			}
		}
	})
}

// TestSerializeDeepMixedChainIsLinear: serializing a deep chain of mixed
// content, <a><a>…</a>t</a>t</a>, where every element writes an element
// child before its first text child, costs time linear in the chain,
// pretty and compact, with and without a filter. Each element's mixed-
// content decision reads its direct text children before any child is
// written; a writer that wrote the children indented and then rewrote
// them inline on meeting the text would double the work per level. The
// filtered cases count Visible calls and stop at a linear bound; the
// unfiltered ones must finish within a generous deadline.
func TestSerializeDeepMixedChainIsLinear(t *testing.T) {
	const depth = 60
	chain := strings.Repeat("<a>", depth) + strings.Repeat("t</a>", depth)
	d := MustParse(chain)
	bare := MustParse(strings.Repeat("<a>", depth-1) + "<a/>" + strings.Repeat("</a>", depth-1))
	nodes := 2 * depth

	for _, indent := range []string{"", "  "} {
		name := "compact"
		if indent != "" {
			name = "pretty"
		}
		t.Run(name+"/unfiltered", func(t *testing.T) {
			done := make(chan string, 1)
			go func() {
				var b strings.Builder
				_ = d.Write(&b, WriteOptions{Indent: indent})
				done <- b.String()
			}()
			select {
			case got := <-done:
				want := chain
				if indent != "" {
					want += "\n" // the root's content is mixed: all inline
				}
				if got != want {
					t.Fatalf("got %q\nwant %q", got, want)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("serializing a %d-deep mixed chain did not finish in 10s", depth)
			}
		})
		for _, hideText := range []bool{false, true} {
			calls := 0
			f := &Filter{
				Visible: func(n *Node) bool {
					if calls++; calls > 4*nodes {
						t.Fatalf("more than %d Visible calls for %d nodes", 4*nodes, nodes)
					}
					return !hideText || n.Kind() != KindText
				},
				Label: func(n *Node) string { return n.Label() },
			}
			var b strings.Builder
			if err := d.Write(&b, WriteOptions{Indent: indent, Filter: f}); err != nil {
				t.Fatal(err)
			}
			want := d.serialize(indent)
			if hideText {
				// No text is visible, so no element has mixed content and
				// the innermost one has no visible child at all.
				want = bare.serialize(indent)
			}
			if b.String() != want {
				t.Errorf("%s, hideText=%v: got %q\nwant %q", name, hideText, b.String(), want)
			}
		}
	}
}
