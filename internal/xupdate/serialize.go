package xupdate

import (
	"encoding/xml"
	"fmt"
	"io"
	"strings"

	"securexml/internal/xmltree"
)

// WriteModifications renders operations back to the <xupdate:modifications>
// wire syntax. Round trip holds: ParseModifications(WriteModifications(ops))
// yields equivalent operations. Content fragments render as literal XML
// with value-of placeholders restored to <xupdate:value-of/> elements.
//
// It is what the operation journal stores, so a command log can be
// re-parsed and re-executed during recovery.
func WriteModifications(w io.Writer, ops []*Op) error {
	if _, err := fmt.Fprintf(w, "<xupdate:modifications version=\"1.0\" xmlns:xupdate=%q>\n", Namespace); err != nil {
		return err
	}
	for _, op := range ops {
		if err := writeOp(w, op); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "</xupdate:modifications>\n")
	return err
}

// ModificationsString is WriteModifications into a string.
func ModificationsString(ops []*Op) (string, error) {
	var b strings.Builder
	if err := WriteModifications(&b, ops); err != nil {
		return "", err
	}
	return b.String(), nil
}

// Canonical returns op in the wire syntax's normal form: the operation
// ParseModifications reads back from WriteModifications. The journal
// stores operations in that syntax, so an operation built in Go replays
// to the state it produced live only if it ran in this form. It differs
// from op where the syntax cannot carry op verbatim: update and rename
// values lose surrounding whitespace, and content loses comments and
// whitespace-only text, its adjacent text nodes merging into one.
func Canonical(op *Op) (*Op, error) {
	s, err := ModificationsString([]*Op{op})
	if err != nil {
		return nil, err
	}
	ops, err := ParseModificationsString(s)
	if err != nil {
		return nil, fmt.Errorf("xupdate: %s operation does not survive its wire syntax: %w", op.Kind, err)
	}
	return ops[0], nil
}

func writeOp(w io.Writer, op *Op) error {
	sel := escapeAttr(op.Select)
	switch op.Kind {
	case Remove:
		_, err := fmt.Fprintf(w, "  <xupdate:remove select=\"%s\"/>\n", sel)
		return err
	case Variable:
		_, err := fmt.Fprintf(w, "  <xupdate:variable name=\"%s\" select=\"%s\"/>\n",
			escapeAttr(op.NewValue), sel)
		return err
	case Update, Rename:
		name := "update"
		if op.Kind == Rename {
			name = "rename"
		}
		_, err := fmt.Fprintf(w, "  <xupdate:%s select=\"%s\">%s</xupdate:%s>\n",
			name, sel, escapeText(op.NewValue), name)
		return err
	case Append, InsertBefore, InsertAfter:
		name := map[Kind]string{Append: "append", InsertBefore: "insert-before", InsertAfter: "insert-after"}[op.Kind]
		if _, err := fmt.Fprintf(w, "  <xupdate:%s select=\"%s\">", name, sel); err != nil {
			return err
		}
		if op.Content != nil {
			for _, c := range op.Content.Root().Children() {
				if err := writeContent(w, c); err != nil {
					return err
				}
			}
		}
		_, err := fmt.Fprintf(w, "</xupdate:%s>\n", name)
		return err
	default:
		return fmt.Errorf("xupdate: cannot serialize operation kind %d", int(op.Kind))
	}
}

// writeContent renders one content node: literal elements/text, with
// placeholders restored.
func writeContent(w io.Writer, n *xmltree.Node) error {
	switch n.Kind() {
	case xmltree.KindText:
		_, err := io.WriteString(w, escapeText(n.Label()))
		return err
	case xmltree.KindComment:
		if isPlaceholder(n) {
			sel := strings.TrimPrefix(n.Label(), valueOfMarker)
			_, err := fmt.Fprintf(w, "<xupdate:value-of select=\"%s\"/>", escapeAttr(sel))
			return err
		}
		_, err := fmt.Fprintf(w, "<!--%s-->", n.Label())
		return err
	case xmltree.KindElement:
		if _, err := fmt.Fprintf(w, "<%s", n.Label()); err != nil {
			return err
		}
		for _, a := range n.Attributes() {
			if _, err := fmt.Fprintf(w, " %s=\"%s\"", a.Label(), escapeAttr(a.StringValue())); err != nil {
				return err
			}
		}
		if len(n.Children()) == 0 {
			_, err := io.WriteString(w, "/>")
			return err
		}
		if _, err := io.WriteString(w, ">"); err != nil {
			return err
		}
		for _, c := range n.Children() {
			if err := writeContent(w, c); err != nil {
				return err
			}
		}
		_, err := fmt.Fprintf(w, "</%s>", n.Label())
		return err
	default:
		return fmt.Errorf("xupdate: cannot serialize %s content node", n.Kind())
	}
}

func escapeText(s string) string {
	var b strings.Builder
	_ = xml.EscapeText(&b, []byte(s))
	return b.String()
}

func escapeAttr(s string) string {
	// EscapeText also escapes quotes and newlines, which is what attribute
	// values need.
	return escapeText(s)
}
