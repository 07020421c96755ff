package xmltree

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"unicode/utf8"
)

// WriteOptions controls serialization.
type WriteOptions struct {
	// Indent pretty-prints with the given unit (e.g. "  "). Empty writes a
	// compact single line.
	Indent string
	// Filter, when set, writes the document as the filter presents it:
	// the user's view (axioms 15–17) rendered from the source without
	// materializing it. Nil writes the stored tree.
	Filter *Filter
}

// maxPooledBuf is the largest buffer the serializer pool takes back: the
// buffer of a rare huge document goes to the garbage collector instead of
// pinning its memory in the pool.
const maxPooledBuf = 1 << 20

// bufPool holds serialization buffers, so a steady stream of views of
// similar size serializes without growing a fresh buffer each time.
var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// putBuf returns p to the pool unless it grew past maxPooledBuf.
func putBuf(p *[]byte) {
	if cap(*p) > maxPooledBuf {
		return
	}
	*p = (*p)[:0]
	bufPool.Put(p)
}

// appendTo appends the serialization of d, as f presents it, to b.
func (d *Document) appendTo(b []byte, indent string, f *Filter) []byte {
	for _, c := range d.root.children {
		if !f.IsVisible(c) {
			continue
		}
		b = appendNode(b, c, indent, 0, f)
		if indent != "" {
			b = append(b, '\n')
		}
	}
	return b
}

// Write serializes the document (or fragment) to w with a single w.Write
// call, so a caller may take the body's length from that call (an HTTP
// handler setting Content-Length, for one).
func (d *Document) Write(w io.Writer, opts WriteOptions) error {
	p := bufPool.Get().(*[]byte)
	*p = d.appendTo(*p, opts.Indent, opts.Filter)
	_, err := w.Write(*p)
	putBuf(p)
	return err
}

// XML returns the serialized document as a string, pretty-printed with
// two-space indentation.
func (d *Document) XML() string { return d.serialize("  ") }

// CompactXML returns the document on a single line.
func (d *Document) CompactXML() string { return d.serialize("") }

// serialize appends d into a pooled buffer and copies it into the one
// string it returns.
func (d *Document) serialize(indent string) string {
	p := bufPool.Get().(*[]byte)
	*p = d.appendTo(*p, indent, nil)
	s := string(*p)
	putBuf(p)
	return s
}

// hasTextChild reports whether f lets a text child of n through: n's
// content is then mixed.
func hasTextChild(n *Node, f *Filter) bool {
	for _, c := range n.children {
		if c.kind == KindText && f.IsVisible(c) {
			return true
		}
	}
	return false
}

// appendNode appends the serialization of n, as f presents it, indented
// depth units deep (no indentation when indent is empty), to b. n itself
// must pass f; the walk never descends below a child that does not, so a
// hidden node takes its whole subtree with it (axiom 17). Labels are
// written as f presents them; text and attribute values are escaped by
// appendEscaped. Whether an element is empty and whether its content is
// mixed are decided over the children f lets through. A document node
// has no markup of its own: appendTo serializes its children.
func appendNode(b []byte, n *Node, indent string, depth int, f *Filter) []byte {
	for i := 0; i < depth; i++ {
		b = append(b, indent...)
	}
	switch n.kind {
	case KindText:
		b = appendEscaped(b, f.EffectiveLabel(n))
	case KindComment:
		b = append(b, "<!--"...)
		b = append(b, f.EffectiveLabel(n)...)
		b = append(b, "-->"...)
	case KindAttribute:
		b = appendAttr(b, n, f)
	case KindElement:
		label := f.EffectiveLabel(n)
		b = append(b, '<')
		b = append(b, label...)
		for _, a := range n.attrs {
			if f.IsVisible(a) {
				b = append(b, ' ')
				b = appendAttr(b, a, f)
			}
		}
		b = append(b, '>')
		if hasTextChild(n, f) {
			// Mixed content renders inline: indentation would inject
			// whitespace into the character data.
			for _, c := range n.children {
				if f.IsVisible(c) {
					b = appendNode(b, c, "", 0, f)
				}
			}
		} else {
			open := len(b)
			if indent != "" {
				b = append(b, '\n')
			}
			content := false
			for _, c := range n.children {
				if !f.IsVisible(c) {
					continue
				}
				b = appendNode(b, c, indent, depth+1, f)
				if indent != "" {
					b = append(b, '\n')
				}
				content = true
			}
			if !content {
				// No child passes f: an empty element.
				return append(b[:open-1], "/>"...)
			}
			for i := 0; i < depth; i++ {
				b = append(b, indent...)
			}
		}
		b = append(b, "</"...)
		b = append(b, label...)
		b = append(b, '>')
	}
	return b
}

// appendAttr appends name="value" for attribute node a as f presents it:
// the value is the filtered string-value of its text.
func appendAttr(b []byte, a *Node, f *Filter) []byte {
	var v string
	if f == nil && len(a.children) == 1 && a.children[0].kind == KindText {
		v = a.children[0].label // the usual shape: no string-value walk
	} else {
		v = f.StringValue(a)
	}
	b = append(b, f.EffectiveLabel(a)...)
	b = append(b, '=', '"')
	b = appendEscaped(b, v)
	return append(b, '"')
}

// appendEscaped appends s escaped as encoding/xml's EscapeText escapes it:
// the five markup characters and tab, newline and carriage return become
// character references, and bytes that do not decode to a valid XML
// character become U+FFFD. Runs needing no escape are copied whole.
func appendEscaped(b []byte, s string) []byte {
	last := 0
	for i := 0; i < len(s); {
		c := s[i]
		var esc string
		width := 1
		if c < utf8.RuneSelf {
			switch c {
			case '"':
				esc = "&#34;"
			case '\'':
				esc = "&#39;"
			case '&':
				esc = "&amp;"
			case '<':
				esc = "&lt;"
			case '>':
				esc = "&gt;"
			case '\t':
				esc = "&#x9;"
			case '\n':
				esc = "&#xA;"
			case '\r':
				esc = "&#xD;"
			default:
				if c >= 0x20 {
					i++
					continue
				}
				esc = "\uFFFD"
			}
		} else {
			var r rune
			r, width = utf8.DecodeRuneInString(s[i:])
			if (r != utf8.RuneError || width != 1) && isXMLChar(r) {
				i += width
				continue
			}
			esc = "\uFFFD"
		}
		b = append(b, s[last:i]...)
		b = append(b, esc...)
		i += width
		last = i
	}
	return append(b, s[last:]...)
}

// isXMLChar reports whether r is in the XML 1.0 Char production.
func isXMLChar(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}

// Sketch renders the tree in the indented "node facts" style used by the
// paper's figures: one line per node with its identifier and label, e.g.
//
//	/                    document
//	  /a0                patients
//	    /a0/a0           franck
//
// It is what cmd/xmlsec-demo prints when reproducing Fig. 1 and Fig. 2.
func (d *Document) Sketch() string {
	var b strings.Builder
	d.root.Walk(func(n *Node) bool {
		indent := strings.Repeat("  ", n.id.Level())
		switch n.kind {
		case KindDocument:
			fmt.Fprintf(&b, "%s%-24s document\n", indent, n.idText)
		case KindText:
			fmt.Fprintf(&b, "%s%-24s text()  %s\n", indent, n.idText, n.label)
		case KindAttribute:
			fmt.Fprintf(&b, "%s%-24s @%s\n", indent, n.idText, n.label)
		case KindComment:
			fmt.Fprintf(&b, "%s%-24s comment()\n", indent, n.idText)
		default:
			fmt.Fprintf(&b, "%s%-24s %s\n", indent, n.idText, n.label)
		}
		return true
	})
	return b.String()
}
