package xupdate

import (
	"encoding/xml"
	"fmt"
	"io"
	"strings"

	"securexml/internal/xmltree"
)

// Namespace is the XUpdate namespace of the working draft.
const Namespace = "http://www.xmldb.org/xupdate"

// isXUpdateName reports whether an element name belongs to the xupdate
// namespace. The prefix form is accepted too, so documents that omit the
// xmlns declaration still parse.
func isXUpdateName(n xml.Name) bool {
	return n.Space == Namespace || n.Space == "xupdate"
}

// ParseModifications reads an <xupdate:modifications> document and returns
// the operations in document order.
//
// Supported content constructors inside creating operations:
// xupdate:element (with name attribute), xupdate:attribute (with name
// attribute), xupdate:text, and literal XML elements/text.
func ParseModifications(r io.Reader) ([]*Op, error) {
	dec := xml.NewDecoder(r)

	// Find the root element.
	var root xml.StartElement
	for {
		tok, err := dec.Token()
		if err != nil {
			return nil, fmt.Errorf("xupdate: parse: %w", err)
		}
		if se, ok := tok.(xml.StartElement); ok {
			root = se
			break
		}
	}
	if !isXUpdateName(root.Name) || root.Name.Local != "modifications" {
		return nil, fmt.Errorf("xupdate: root element is <%s>, want <xupdate:modifications>", root.Name.Local)
	}

	var ops []*Op
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			return nil, fmt.Errorf("xupdate: parse: unexpected EOF inside <xupdate:modifications>")
		}
		if err != nil {
			return nil, fmt.Errorf("xupdate: parse: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			op, err := parseOp(dec, t)
			if err != nil {
				return nil, err
			}
			ops = append(ops, op)
		case xml.EndElement:
			return ops, nil
		case xml.CharData:
			if strings.TrimSpace(string(t)) != "" {
				return nil, fmt.Errorf("xupdate: parse: stray text %q between operations", strings.TrimSpace(string(t)))
			}
		}
	}
}

// ParseModificationsString is ParseModifications over a string.
func ParseModificationsString(s string) ([]*Op, error) {
	return ParseModifications(strings.NewReader(s))
}

func parseOp(dec *xml.Decoder, se xml.StartElement) (*Op, error) {
	if !isXUpdateName(se.Name) {
		return nil, fmt.Errorf("xupdate: parse: unexpected element <%s> (operations must be xupdate:*)", se.Name.Local)
	}
	var kind Kind
	switch se.Name.Local {
	case "update":
		kind = Update
	case "rename":
		kind = Rename
	case "append":
		kind = Append
	case "insert-before":
		kind = InsertBefore
	case "insert-after":
		kind = InsertAfter
	case "remove":
		kind = Remove
	case "variable":
		kind = Variable
	default:
		return nil, fmt.Errorf("xupdate: parse: unknown operation <xupdate:%s>", se.Name.Local)
	}
	op := &Op{Kind: kind}
	for _, a := range se.Attr {
		switch a.Name.Local {
		case "select":
			op.Select = a.Value
		case "name":
			if kind == Variable {
				op.NewValue = a.Value // variable name
			}
		}
	}
	if op.Select == "" {
		return nil, fmt.Errorf("xupdate: parse: <xupdate:%s> lacks a select attribute", se.Name.Local)
	}

	switch kind {
	case Variable:
		if op.NewValue == "" {
			return nil, fmt.Errorf("xupdate: parse: <xupdate:variable> lacks a name attribute")
		}
		if err := skipToEnd(dec); err != nil {
			return nil, err
		}
	case Remove:
		if err := skipToEnd(dec); err != nil {
			return nil, err
		}
	case Update, Rename:
		text, err := collectText(dec)
		if err != nil {
			return nil, err
		}
		op.NewValue = text
	default: // creating operations
		frag := xmltree.NewFragment(nil)
		if err := parseContent(dec, frag, frag.Root()); err != nil {
			return nil, err
		}
		op.Content = frag
	}
	return op, nil
}

// skipToEnd consumes tokens to the matching end element, rejecting child
// content.
func skipToEnd(dec *xml.Decoder) error {
	depth := 0
	for {
		tok, err := dec.Token()
		if err != nil {
			return fmt.Errorf("xupdate: parse: %w", err)
		}
		switch tok.(type) {
		case xml.StartElement:
			depth++
		case xml.EndElement:
			if depth == 0 {
				return nil
			}
			depth--
		}
	}
}

// collectText gathers the text content of update/rename operations.
func collectText(dec *xml.Decoder) (string, error) {
	var b strings.Builder
	for {
		tok, err := dec.Token()
		if err != nil {
			return "", fmt.Errorf("xupdate: parse: %w", err)
		}
		switch t := tok.(type) {
		case xml.CharData:
			b.Write(t)
		case xml.EndElement:
			return strings.TrimSpace(b.String()), nil
		case xml.StartElement:
			return "", fmt.Errorf("xupdate: parse: unexpected child element <%s> in update/rename", t.Name.Local)
		}
	}
}

// parseContent builds the content fragment under cur until the enclosing
// operation's end element.
func parseContent(dec *xml.Decoder, frag *xmltree.Document, cur *xmltree.Node) error {
	for {
		tok, err := dec.Token()
		if err != nil {
			return fmt.Errorf("xupdate: parse content: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			switch {
			case isXUpdateName(t.Name) && t.Name.Local == "element":
				name := attrOf(t, "name")
				if name == "" {
					return fmt.Errorf("xupdate: parse: xupdate:element lacks a name attribute")
				}
				if err := xmltree.CheckLabel(xmltree.KindElement, name); err != nil {
					return fmt.Errorf("xupdate: parse: xupdate:element: %w", err)
				}
				el, err := frag.AppendChild(cur, xmltree.KindElement, name)
				if err != nil {
					return err
				}
				if err := parseContent(dec, frag, el); err != nil {
					return err
				}
			case isXUpdateName(t.Name) && t.Name.Local == "attribute":
				name := attrOf(t, "name")
				if name == "" {
					return fmt.Errorf("xupdate: parse: xupdate:attribute lacks a name attribute")
				}
				if err := xmltree.CheckLabel(xmltree.KindAttribute, name); err != nil {
					return fmt.Errorf("xupdate: parse: xupdate:attribute: %w", err)
				}
				value, err := collectText(dec)
				if err != nil {
					return err
				}
				if cur.Kind() != xmltree.KindElement {
					return fmt.Errorf("xupdate: parse: xupdate:attribute outside an element constructor")
				}
				if _, err := frag.SetAttribute(cur, name, value); err != nil {
					return err
				}
			case isXUpdateName(t.Name) && t.Name.Local == "text":
				value, err := collectText(dec)
				if err != nil {
					return err
				}
				if err := appendText(frag, cur, value); err != nil {
					return err
				}
			case isXUpdateName(t.Name) && t.Name.Local == "value-of":
				sel := attrOf(t, "select")
				if sel == "" {
					return fmt.Errorf("xupdate: parse: xupdate:value-of lacks a select attribute")
				}
				if err := skipToEnd(dec); err != nil {
					return err
				}
				if err := addValueOfPlaceholder(frag, cur, sel); err != nil {
					return err
				}
			case isXUpdateName(t.Name):
				return fmt.Errorf("xupdate: parse: unsupported constructor <xupdate:%s>", t.Name.Local)
			default:
				// Literal element content.
				el, err := frag.AppendChild(cur, xmltree.KindElement, t.Name.Local)
				if err != nil {
					return err
				}
				for _, a := range t.Attr {
					if a.Name.Space == "xmlns" || a.Name.Local == "xmlns" {
						continue
					}
					if _, err := frag.SetAttribute(el, a.Name.Local, a.Value); err != nil {
						return err
					}
				}
				if err := parseContent(dec, frag, el); err != nil {
					return err
				}
			}
		case xml.CharData:
			if err := appendText(frag, cur, string(t)); err != nil {
				return err
			}
		case xml.EndElement:
			return nil
		}
	}
}

// appendText adds text under cur. Whitespace-only text adds nothing, and
// text after a text node joins it, so a fragment holds the nodes its
// serialization (writeContent) parses back to.
func appendText(frag *xmltree.Document, cur *xmltree.Node, text string) error {
	if strings.TrimSpace(text) == "" {
		return nil
	}
	if kids := cur.Children(); len(kids) > 0 && kids[len(kids)-1].Kind() == xmltree.KindText {
		last := kids[len(kids)-1]
		return frag.Rename(last, last.Label()+text)
	}
	_, err := frag.AppendChild(cur, xmltree.KindText, text)
	return err
}

func attrOf(se xml.StartElement, name string) string {
	for _, a := range se.Attr {
		if a.Name.Local == name {
			return a.Value
		}
	}
	return ""
}
