package xmltree

import (
	"fmt"
	"unicode/utf8"
)

// CheckLabel reports whether label may label a node of kind k: element and
// attribute labels are serialized verbatim as tag and attribute names, so
// they must be XML names (IsName); text, comment and document labels are
// free (axioms 2–5 let xupdate:update write any text).
func CheckLabel(k Kind, label string) error {
	if (k == KindElement || k == KindAttribute) && !IsName(label) {
		return fmt.Errorf("%w: %q", ErrInvalidName, label)
	}
	return nil
}

// IsName reports whether s matches the Name production of XML 1.0 (fifth
// edition, §2.3): a NameStartChar followed by NameChars.
func IsName(s string) bool {
	if s == "" {
		return false
	}
	for i, w := 0, 0; i < len(s); i += w {
		var r rune
		r, w = utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && w == 1 {
			return false
		}
		if !isNameStart(r) && (i == 0 || !isNameRest(r)) {
			return false
		}
	}
	return true
}

func isNameStart(r rune) bool {
	switch {
	case r == ':' || r == '_' || 'A' <= r && r <= 'Z' || 'a' <= r && r <= 'z':
		return true
	case r < 0xC0:
		return false
	}
	return r <= 0xD6 || 0xD8 <= r && r <= 0xF6 || 0xF8 <= r && r <= 0x2FF ||
		0x370 <= r && r <= 0x37D || 0x37F <= r && r <= 0x1FFF ||
		0x200C <= r && r <= 0x200D || 0x2070 <= r && r <= 0x218F ||
		0x2C00 <= r && r <= 0x2FEF || 0x3001 <= r && r <= 0xD7FF ||
		0xF900 <= r && r <= 0xFDCF || 0xFDF0 <= r && r <= 0xFFFD ||
		0x10000 <= r && r <= 0xEFFFF
}

func isNameRest(r rune) bool {
	return r == '-' || r == '.' || '0' <= r && r <= '9' || r == 0xB7 ||
		0x300 <= r && r <= 0x36F || 0x203F <= r && r <= 0x2040
}
