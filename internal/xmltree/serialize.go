package xmltree

import (
	"encoding/xml"
	"fmt"
	"io"
	"strings"
)

// WriteOptions controls serialization.
type WriteOptions struct {
	// Indent pretty-prints with the given unit (e.g. "  "). Empty writes a
	// compact single line.
	Indent string
	// ShowIDs annotates every element with a sxml:id attribute carrying its
	// persistent identifier. Useful for debugging and the demo binary; the
	// identifiers are normally internal only (§4.4.1: "numbers are for
	// internal processing only and are not visible to users").
	ShowIDs bool
}

// Write serializes the document (or fragment) to w.
func (d *Document) Write(w io.Writer, opts WriteOptions) error {
	for _, c := range d.root.children {
		if err := writeNode(w, c, opts, 0); err != nil {
			return err
		}
		if opts.Indent != "" {
			if _, err := io.WriteString(w, "\n"); err != nil {
				return err
			}
		}
	}
	return nil
}

// XML returns the serialized document as a string, pretty-printed with
// two-space indentation.
func (d *Document) XML() string {
	var b strings.Builder
	if err := d.Write(&b, WriteOptions{Indent: "  "}); err != nil {
		return "<!-- serialization error: " + err.Error() + " -->"
	}
	return b.String()
}

// CompactXML returns the document on a single line.
func (d *Document) CompactXML() string {
	var b strings.Builder
	if err := d.Write(&b, WriteOptions{}); err != nil {
		return "<!-- serialization error: " + err.Error() + " -->"
	}
	return b.String()
}

// hasTextChild reports whether n has a direct text child (mixed content).
func hasTextChild(n *Node) bool {
	for _, c := range n.children {
		if c.kind == KindText {
			return true
		}
	}
	return false
}

func writeNode(w io.Writer, n *Node, opts WriteOptions, depth int) error {
	pad := ""
	nl := ""
	if opts.Indent != "" {
		pad = strings.Repeat(opts.Indent, depth)
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
		if opts.ShowIDs {
			if _, err := fmt.Fprintf(w, " sxml:id=%q", n.idText); err != nil {
				return err
			}
		}
		for _, a := range n.attrs {
			var esc strings.Builder
			if err := xml.EscapeText(&esc, []byte(a.StringValue())); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, " %s=%q", a.label, esc.String()); err != nil {
				return err
			}
		}
		if len(n.children) == 0 {
			_, err := io.WriteString(w, "/>")
			return err
		}
		// Mixed content (any text child) renders inline: indentation would
		// inject whitespace into the character data.
		if hasTextChild(n) {
			if _, err := io.WriteString(w, ">"); err != nil {
				return err
			}
			inline := opts
			inline.Indent = ""
			for _, c := range n.children {
				if err := writeNode(w, c, inline, 0); err != nil {
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
			if err := writeNode(w, c, opts, depth+1); err != nil {
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
		_, err := fmt.Fprintf(w, "%s%s=%q", pad, n.label, esc.String())
		return err
	default:
		return fmt.Errorf("xmltree: cannot serialize %s node", n.kind)
	}
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
