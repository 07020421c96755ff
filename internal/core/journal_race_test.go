package core

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"securexml/internal/journal"
	"securexml/internal/xupdate"
)

// TestJournaledWritersConcurrent runs secured writes on eight goroutines
// at once over a journaled database, with the audit log read alongside.
// The doctor's writers contend on the same node with writes that do not
// commute: single updates of franck's diagnosis, and two-op Apply
// documents that update it and then append a note copying it under
// robert's diagnosis, so the final state depends on the commit order.
// It checks the journal's bookkeeping — one entry per applied write
// request, numbered 1..k without gap or repeat; refused writes (the
// patients' renames) apply nothing and leave no entry — and that
// replaying the journal onto a snapshot taken before the writers started
// reproduces the live source: entries are appended in commit order. Under
// -race (make race) it is also the check on the journal's and the audit
// log's locks.
func TestJournaledWritersConcurrent(t *testing.T) {
	var log bytes.Buffer
	db := hospitalWithOptions(t, WithJournal(&log, 0))
	var snap bytes.Buffer
	if err := db.Save(&snap); err != nil {
		t.Fatal(err)
	}
	users := []string{"laporte", "laporte", "laporte", "laporte", "laporte", "laporte", "robert", "franck"}
	const iters = 16

	var applied atomic.Int64
	var writers sync.WaitGroup
	errs := make(chan error, len(users))
	for w, user := range users {
		s := session(t, db, user)
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < iters; i++ {
				var results []*xupdate.Result
				var err error
				switch {
				case user != "laporte":
					var res *xupdate.Result
					res, err = s.UpdateCtx(context.Background(), &xupdate.Op{Kind: xupdate.Rename, Select: "/patients/" + user, NewValue: "king"})
					results = []*xupdate.Result{res}
				case w%2 == 0:
					var res *xupdate.Result
					res, err = s.UpdateCtx(context.Background(), &xupdate.Op{Kind: xupdate.Update,
						Select: "/patients/franck/diagnosis", NewValue: fmt.Sprintf("dx-%d-%d", w, i)})
					results = []*xupdate.Result{res}
				default:
					results, err = s.ApplyCtx(context.Background(), fmt.Sprintf(`
						<xupdate:modifications xmlns:xupdate="http://www.xmldb.org/xupdate">
						  <xupdate:update select="/patients/franck/diagnosis">ap-%d-%d</xupdate:update>
						  <xupdate:append select="/patients/robert/diagnosis">
						    <xupdate:element name="seen"><xupdate:value-of select="string(/patients/franck/diagnosis)"/></xupdate:element>
						  </xupdate:append>
						</xupdate:modifications>`, w, i))
				}
				if err != nil {
					errs <- fmt.Errorf("%s writer %d op %d: %w", user, w, i, err)
					return
				}
				for _, res := range results {
					if res.Applied > 0 {
						applied.Add(1)
						break
					}
				}
			}
		}()
	}
	stop := make(chan struct{})
	var auditor sync.WaitGroup
	auditor.Add(1)
	go func() {
		defer auditor.Done()
		for {
			select {
			case <-stop:
				return
			default:
				db.Audit()
			}
		}
	}()
	writers.Wait()
	close(stop)
	auditor.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	entries, err := journal.Read(bytes.NewReader(log.Bytes()))
	if err != nil {
		t.Fatalf("reading the journal: %v", err)
	}
	if k := applied.Load(); k == 0 || int64(len(entries)) != k {
		t.Fatalf("journal holds %d entries for %d applied writes", len(entries), k)
	}
	for i, e := range entries {
		if e.Seq != uint64(i+1) {
			t.Fatalf("entry %d has sequence number %d, want %d", i, e.Seq, i+1)
		}
		if e.User != "laporte" {
			t.Errorf("entry %d journaled a write by %s, whose writes are all refused", e.Seq, e.User)
		}
	}
	restored, lastSeq, err := Recover(&snap, &log)
	if err != nil {
		t.Fatal(err)
	}
	if lastSeq != uint64(len(entries)) {
		t.Errorf("replay ended at entry %d, want %d", lastSeq, len(entries))
	}
	if got, want := restored.SourceXML(), db.SourceXML(); got != want {
		t.Fatalf("replaying the journal diverged from the live source:\n%s\nvs live\n%s", got, want)
	}
	if !strings.Contains(db.SourceXML(), "<seen>") {
		t.Error("no Apply document appended its note")
	}
}
