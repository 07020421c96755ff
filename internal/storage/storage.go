// Package storage persists and restores complete database snapshots: the
// document *with its persistent node identifiers*, the subject hierarchy,
// and the security policy. Plain XML export/import would be lossy — §3.1
// requires identifiers to survive forever, and rules, views, and the
// write-path all key on them — so snapshots carry the identifiers
// explicitly and restore bit-identical geometry.
//
// The format is a line-oriented text file:
//
//	securexml-snapshot 1
//	scheme fracpath
//	node <id> <kind> <label-quoted>
//	...                       (document order; parents precede children)
//	subject <role|user> <name>
//	isa <child> <parent>
//	rule <accept|deny> <privilege> <priority> <subject> <path-quoted>
//	end
//
// Labels and paths are strconv-quoted, so arbitrary content round-trips.
package storage

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"securexml/internal/labeling"
	"securexml/internal/policy"
	"securexml/internal/subject"
	"securexml/internal/xmltree"
)

// magic is the header line of snapshot version 1.
const magic = "securexml-snapshot 1"

// Snapshot is the full persistent state of a database.
type Snapshot struct {
	// SchemeName names the labeling scheme of the document.
	SchemeName string
	// Doc is the document; node identifiers are preserved by Write/Read.
	Doc *xmltree.Document
	// Subjects is the subject hierarchy.
	Subjects *subject.Hierarchy
	// Rules is the security policy in ascending priority order.
	Rules []policy.Rule
}

// ErrBadSnapshot is wrapped by all Read parse failures.
var ErrBadSnapshot = errors.New("storage: malformed snapshot")

// Write serializes the snapshot.
func Write(w io.Writer, s *Snapshot) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, magic)
	fmt.Fprintf(bw, "scheme %s\n", s.SchemeName)
	var werr error
	s.Doc.Root().Walk(func(n *xmltree.Node) bool {
		if n.Kind() == xmltree.KindDocument {
			return true // implicit
		}
		_, err := fmt.Fprintf(bw, "node %s %d %s\n", n.ID(), int(n.Kind()), strconv.Quote(n.Label()))
		if err != nil {
			werr = err
			return false
		}
		return true
	})
	if werr != nil {
		return werr
	}
	subjects, isa := s.Subjects.Facts()
	for _, name := range subjects {
		kind, _ := s.Subjects.KindOf(name)
		tag := "role"
		if kind == subject.User {
			tag = "user"
		}
		fmt.Fprintf(bw, "subject %s %s\n", tag, name)
	}
	for _, edge := range isa {
		fmt.Fprintf(bw, "isa %s %s\n", edge[0], edge[1])
	}
	for _, r := range s.Rules {
		fmt.Fprintf(bw, "rule %s %s %d %s %s\n",
			r.Effect, r.Privilege, r.Priority, r.Subject, strconv.Quote(r.Path))
	}
	if _, err := fmt.Fprintln(bw, "end"); err != nil {
		return err
	}
	return bw.Flush()
}

// Read parses a snapshot and reconstructs the document (with its original
// identifiers), hierarchy and rules. The returned policy rules are not yet
// bound to a hierarchy; callers re-add them via policy.Policy.Add so path
// compilation and subject checks re-run.
func Read(r io.Reader) (*Snapshot, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
	line := func() (string, bool) {
		for sc.Scan() {
			t := strings.TrimRight(sc.Text(), "\r")
			return t, true
		}
		return "", false
	}
	first, ok := line()
	if !ok || first != magic {
		return nil, fmt.Errorf("%w: missing %q header", ErrBadSnapshot, magic)
	}
	schemeLine, ok := line()
	if !ok || !strings.HasPrefix(schemeLine, "scheme ") {
		return nil, fmt.Errorf("%w: missing scheme line", ErrBadSnapshot)
	}
	schemeName := strings.TrimPrefix(schemeLine, "scheme ")
	scheme, err := labeling.ByName(schemeName)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	snap := &Snapshot{
		SchemeName: schemeName,
		Doc:        xmltree.New(scheme),
		Subjects:   subject.NewHierarchy(),
	}
	sawEnd := false
	for {
		l, ok := line()
		if !ok {
			break
		}
		if l == "" {
			continue
		}
		if l == "end" {
			sawEnd = true
			break
		}
		verb, rest := splitWord(l)
		switch verb {
		case "node":
			if err := readNode(snap.Doc, rest); err != nil {
				return nil, err
			}
		case "subject":
			kind, name := splitWord(rest)
			var err error
			switch kind {
			case "role":
				err = snap.Subjects.AddRole(name)
			case "user":
				err = snap.Subjects.AddUser(name)
			default:
				err = fmt.Errorf("%w: unknown subject kind %q", ErrBadSnapshot, kind)
			}
			if err != nil {
				return nil, err
			}
		case "isa":
			child, parent := splitWord(rest)
			if err := snap.Subjects.AddISA(child, parent); err != nil {
				return nil, err
			}
		case "rule":
			rule, err := readRule(rest)
			if err != nil {
				return nil, err
			}
			snap.Rules = append(snap.Rules, rule)
		default:
			return nil, fmt.Errorf("%w: unknown line %q", ErrBadSnapshot, l)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !sawEnd {
		return nil, fmt.Errorf("%w: truncated (no end marker)", ErrBadSnapshot)
	}
	return snap, nil
}

// readNode parses "  <id> <kind> <label-quoted>" and mirrors the node under
// its parent, preserving the identifier.
func readNode(doc *xmltree.Document, rest string) error {
	idText, rest := splitWord(rest)
	kindText, quoted := splitWord(rest)
	id, err := labeling.Parse(idText)
	if err != nil {
		return fmt.Errorf("%w: node id: %v", ErrBadSnapshot, err)
	}
	kindNum, err := strconv.Atoi(kindText)
	if err != nil || kindNum < int(xmltree.KindDocument) || kindNum > int(xmltree.KindComment) {
		return fmt.Errorf("%w: node kind %q", ErrBadSnapshot, kindText)
	}
	label, err := strconv.Unquote(quoted)
	if err != nil {
		return fmt.Errorf("%w: node label %q", ErrBadSnapshot, quoted)
	}
	parentID, okParent := id.Parent()
	if !okParent {
		return fmt.Errorf("%w: node %s has no parent identifier", ErrBadSnapshot, idText)
	}
	parent := doc.NodeByID(parentID.String())
	if parent == nil {
		return fmt.Errorf("%w: node %s arrives before its parent %s", ErrBadSnapshot, idText, parentID)
	}
	_, err = doc.MirrorChild(parent, xmltree.Kind(kindNum), label, id)
	return err
}

// readRule parses "<effect> <privilege> <priority> <subject> <path-quoted>".
func readRule(rest string) (policy.Rule, error) {
	effText, rest := splitWord(rest)
	privText, rest := splitWord(rest)
	prioText, rest := splitWord(rest)
	subj, quoted := splitWord(rest)

	var eff policy.Effect
	switch effText {
	case "accept":
		eff = policy.Accept
	case "deny":
		eff = policy.Deny
	default:
		return policy.Rule{}, fmt.Errorf("%w: rule effect %q", ErrBadSnapshot, effText)
	}
	priv, err := policy.ParsePrivilege(privText)
	if err != nil {
		return policy.Rule{}, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	prio, err := strconv.ParseInt(prioText, 10, 64)
	if err != nil {
		return policy.Rule{}, fmt.Errorf("%w: rule priority %q", ErrBadSnapshot, prioText)
	}
	path, err := strconv.Unquote(quoted)
	if err != nil {
		return policy.Rule{}, fmt.Errorf("%w: rule path %q", ErrBadSnapshot, quoted)
	}
	return policy.Rule{Effect: eff, Privilege: priv, Priority: prio, Subject: subj, Path: path}, nil
}

func splitWord(s string) (first, rest string) {
	s = strings.TrimSpace(s)
	i := strings.IndexByte(s, ' ')
	if i < 0 {
		return s, ""
	}
	return s[:i], strings.TrimSpace(s[i+1:])
}
