package xmltree

import (
	"encoding/xml"
	"fmt"
	"io"
	"slices"
	"strings"
)

// oracleXML serializes d with the node-at-a-time writer the appender
// replaced, kept as the reference FuzzSerialize compares against. It is
// that writer as it was, except that attribute values are quoted as
// `"` + XML-escaped value + `"` rather than with Go's %q (which doubled
// backslashes and spelled non-printable runes as \uXXXX), and the deleted
// identifier annotation is gone.
func oracleXML(d *Document, indent string) (string, error) {
	var b strings.Builder
	for _, c := range d.root.children {
		if err := oracleWriteNode(&b, c, indent, 0); err != nil {
			return "", err
		}
		if indent != "" {
			b.WriteString("\n")
		}
	}
	return b.String(), nil
}

func oracleWriteNode(w io.Writer, n *Node, indent string, depth int) error {
	pad := ""
	nl := ""
	if indent != "" {
		pad = strings.Repeat(indent, depth)
		nl = "\n"
	}
	switch n.kind {
	case KindText:
		var esc strings.Builder
		if err := xml.EscapeText(&esc, []byte(n.label)); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s%s", pad, esc.String())
		return err
	case KindComment:
		_, err := fmt.Fprintf(w, "%s<!--%s-->", pad, n.label)
		return err
	case KindElement:
		if _, err := fmt.Fprintf(w, "%s<%s", pad, n.label); err != nil {
			return err
		}
		for _, a := range n.attrs {
			var esc strings.Builder
			if err := xml.EscapeText(&esc, []byte(a.StringValue())); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, " %s=\"%s\"", a.label, esc.String()); err != nil {
				return err
			}
		}
		if len(n.children) == 0 {
			_, err := io.WriteString(w, "/>")
			return err
		}
		if slices.ContainsFunc(n.children, func(c *Node) bool { return c.kind == KindText }) {
			if _, err := io.WriteString(w, ">"); err != nil {
				return err
			}
			for _, c := range n.children {
				if err := oracleWriteNode(w, c, "", 0); err != nil {
					return err
				}
			}
			_, err := fmt.Fprintf(w, "</%s>", n.label)
			return err
		}
		if _, err := io.WriteString(w, ">"+nl); err != nil {
			return err
		}
		for _, c := range n.children {
			if err := oracleWriteNode(w, c, indent, depth+1); err != nil {
				return err
			}
			if _, err := io.WriteString(w, nl); err != nil {
				return err
			}
		}
		_, err := fmt.Fprintf(w, "%s</%s>", pad, n.label)
		return err
	case KindAttribute:
		var esc strings.Builder
		if err := xml.EscapeText(&esc, []byte(n.StringValue())); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s%s=\"%s\"", pad, n.label, esc.String())
		return err
	default:
		return fmt.Errorf("xmltree: cannot serialize %s node", n.kind)
	}
}
