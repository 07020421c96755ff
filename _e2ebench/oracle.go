package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"

	"securexml/internal/access"
	"securexml/internal/core"
	"securexml/internal/policy"
	"securexml/internal/server"
	"securexml/internal/subject"
	"securexml/internal/view"
	"securexml/internal/xmltree"
	"securexml/internal/xupdate"
)

// oracle holds the expected answer of every read pair, computed before the
// window by paths independent of the one being timed.
type oracle struct {
	want  []string // by pair id
	known []bool   // want[i] is set; clinic-mixed views are checked at the end instead
	doc   *xmltree.Document
	h     *subject.Hierarchy
	pol   *policy.Policy

	mu       sync.Mutex
	mismatch string // the first wrong answer seen, for the report
}

// buildOracle computes the expected answers:
//   - /query and /value through a second handler over the same database,
//     pinned to the materialized-view tier, so the read ladder's rewrite and
//     qfilter tiers must agree with it;
//   - /view through non-shared policy.Evaluate and view.Materialize over an
//     independently parsed copy of the document (read-only workloads);
//   - /transform answers are learned by the untimed warm pass.
func buildOracle(inst *instance, in *inputs) (*oracle, error) {
	doc, err := xmltree.ParseString(in.docXML, xmltree.ParseOptions{})
	if err != nil {
		return nil, err
	}
	doc.Freeze()
	h, err := hierarchy(in.users)
	if err != nil {
		return nil, err
	}
	pol, err := policy.PaperPolicy(h)
	if err != nil {
		return nil, err
	}
	or := &oracle{want: make([]string, len(in.pairs)), known: make([]bool, len(in.pairs)), doc: doc, h: h, pol: pol}
	pinned := server.New(inst.db, server.WithForcedTier(core.TierView), server.WithSlowTraceThreshold(0))
	err = parallel(len(in.pairs), func(i int) error {
		r := in.read(i)
		switch r.ep {
		case epQuery, epValue:
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodGet, r.path, nil)
			req.SetBasicAuth(r.user, "")
			pinned.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				return fmt.Errorf("view-tier answer for %s %s: status %d: %s", r.user, r.path, rec.Code, rec.Body.String())
			}
			or.want[i], or.known[i] = rec.Body.String(), true
		case epView:
			if in.spec.writes {
				return nil
			}
			xml, err := or.view(or.doc, r.user)
			if err != nil {
				return err
			}
			or.want[i], or.known[i] = xml, true
		}
		return nil
	})
	return or, err
}

// view materializes user's view of doc through non-shared policy
// evaluation (axiom 14) and view.Materialize (axioms 15-17).
func (or *oracle) view(doc *xmltree.Document, user string) (string, error) {
	pm, err := or.pol.Evaluate(doc, or.h, user)
	if err != nil {
		return "", err
	}
	return view.Materialize(doc, pm).Doc.XML(), nil
}

// check reports whether body is the right answer to read request r.
func (or *oracle) check(r *request, body []byte) bool {
	if or.known[r.id] {
		if string(body) == or.want[r.id] {
			return true
		}
		or.noteMismatch(r, body)
		return false
	}
	// A clinic-mixed view changes with every write: checked at the end.
	return bytes.HasPrefix(body, []byte("<patients"))
}

func (or *oracle) noteMismatch(r *request, body []byte) {
	or.mu.Lock()
	defer or.mu.Unlock()
	if or.mismatch == "" {
		or.mismatch = fmt.Sprintf("%s %s as %s: got %q, want %q", r.ep, r.path, r.user, clip(string(body)), clip(or.want[r.id]))
	}
}

func clip(s string) string {
	if len(s) > 120 {
		return s[:120] + "..."
	}
	return s
}

// corrupt falsifies the expected answer of the first checked query pair:
// the self-test uses it to show the oracle fails the run.
func (or *oracle) corrupt(in *inputs) error {
	for i, p := range in.pairs {
		if or.known[i] && in.templates[p.tmpl].ep == epQuery {
			or.want[i] += "corrupted"
			return nil
		}
	}
	return errors.New("no checked query pair to corrupt")
}

// warmPass visits every (user, read template) pair of the run once through
// the load clients before the window, so plan caches, session memos and
// connections are warm and no pair is first touched inside the window.
// Transform answers seen here become the window's expected answers; every
// other answer is checked. It returns the number of wrong answers.
func warmPass(cl []*client, in *inputs, or *oracle) int {
	var failed atomic.Int64
	var wg sync.WaitGroup
	for c := range cl {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(in.pairs); i += len(cl) {
				r := in.read(i)
				status, _, body, err := cl[c].do(&r)
				switch {
				case err != nil || status != http.StatusOK:
					failed.Add(1)
				case r.ep == epTransform:
					or.want[i], or.known[i] = string(body), true
				case !or.check(&r, body):
					failed.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	return int(failed.Load())
}

// opCounts is the per-operation accounting /update reports.
type opCounts struct{ selected, applied, created, removed, skipped int }

func parseCounts(body []byte) (opCounts, bool) {
	var oc opCounts
	var n int
	_, err := fmt.Sscanf(string(body), "op %d: selected=%d applied=%d created=%d removed=%d skipped=%d",
		&n, &oc.selected, &oc.applied, &oc.created, &oc.removed, &oc.skipped)
	return oc, err == nil && n == 1
}

// checkFinalState checks clinic-mixed after the window. It replays every
// client's writes in order on a mirror of the initial document through
// access.Execute (axioms 18-25) and compares each write's counts with the
// server's reply, the final source document with the mirror, and every
// generated user's final /view with a fresh materialization over the
// mirror, which checks incremental view maintenance. It returns the number
// of failed checks, reporting each to log.
func checkFinalState(cl *client, inst *instance, in *inputs, or *oracle, counts [][]opCounts, log io.Writer) (int, error) {
	mirror := or.doc.Clone()
	bad := 0
	for c, ops := range in.writes {
		for i, op := range ops {
			parsed, err := xupdate.ParseModificationsString(op.body)
			if err != nil {
				return bad, err
			}
			res, _, err := access.Execute(mirror, or.h, or.pol, op.user, parsed[0])
			if err != nil {
				return bad, fmt.Errorf("mirror replay of client %d write %d: %w", c, i, err)
			}
			want := opCounts{res.Selected, res.Applied, res.Created, res.Removed, len(res.Skipped)}
			if counts[c][i] != want {
				bad++
				fmt.Fprintf(log, "client %d write %d as %s: server counts %+v, mirror %+v\n", c, i, op.user, counts[c][i], want)
			}
		}
	}
	if inst.db.SourceXML() != mirror.XML() {
		bad++
		fmt.Fprintln(log, "final source document differs from the replayed mirror")
	}
	for _, u := range in.users {
		want, err := or.view(mirror, u.name)
		if err != nil {
			return bad, err
		}
		r := request{ep: epView, user: u.name, path: "/view"}
		status, _, body, err := cl.do(&r)
		if err != nil || status != http.StatusOK || string(body) != want {
			bad++
			fmt.Fprintf(log, "final view of %s differs from a fresh materialization (status %d, err %v)\n", u.name, status, err)
		}
	}
	return bad, nil
}

// parallel runs fn(0..n-1) on GOMAXPROCS workers and returns the errors.
func parallel(n int, fn func(i int) error) error {
	workers := runtime.GOMAXPROCS(0)
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	errs := make([]error, workers)
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for errs[w] == nil {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				errs[w] = fn(i)
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}
