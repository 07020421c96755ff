// Package snapbad seeds the snapshotimmut violations: a Session.View
// snapshot, the specification of the user's view, is edited in place.
package snapbad

import "securexml/internal/core"

// Scrub removes nodes from the snapshot document and resets its
// accounting: both writes go through the snapshot.
func Scrub(s *core.Session) error {
	v, err := s.View()
	if err != nil {
		return err
	}
	for _, c := range v.Doc.Root().Children() {
		_ = v.Doc.Remove(c)
	}
	v.Restricted = 0
	return nil
}
