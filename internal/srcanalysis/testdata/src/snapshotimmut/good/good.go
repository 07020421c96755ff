// Package snapgood is the conforming twin of snapbad: snapshots are read
// freely, and edits go to a private deep copy obtained with Clone, never
// to the snapshot itself.
package snapgood

import "securexml/internal/core"

// Redact clones the snapshot document and edits the private copy.
func Redact(s *core.Session) (string, error) {
	v, err := s.View()
	if err != nil {
		return "", err
	}
	w := v.Doc.Clone()
	for _, c := range w.Root().Children() {
		_ = w.Remove(c)
	}
	return w.XML(), nil
}

// Inspect reads snapshot state without writing any of it.
func Inspect(s *core.Session) (int, error) {
	v, err := s.View()
	if err != nil {
		return 0, err
	}
	return v.Restricted + v.Hidden, nil
}
