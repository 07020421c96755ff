package core

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"securexml/internal/journal"
	"securexml/internal/xupdate"
)

// TestJournaledWritersConcurrent runs secured writes on eight sessions at
// once over a journaled database, with the audit log read alongside, and
// checks the journal's own bookkeeping: one entry per applied write,
// numbered 1..k without gap or repeat. Refused writes (the patients'
// renames) apply nothing and must leave no entry. Under -race (make race)
// it is the check on journal.Writer's lock and the audit lock. Replaying
// the journal is not compared with the live state: entries are numbered
// in append order, which need not be the commit order.
func TestJournaledWritersConcurrent(t *testing.T) {
	var log bytes.Buffer
	db := hospitalWithOptions(t, WithJournal(&log, 0))
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
				op := &xupdate.Op{Kind: xupdate.Rename, Select: "/patients/" + user, NewValue: "king"}
				if user == "laporte" {
					target := []string{"franck", "robert"}[w%2]
					op = &xupdate.Op{Kind: xupdate.Update, Select: "/patients/" + target + "/diagnosis",
						NewValue: fmt.Sprintf("dx-%d-%d", w, i)}
				}
				res, err := s.UpdateCtx(context.Background(), op)
				if err != nil {
					errs <- fmt.Errorf("%s writer %d op %d: %w", user, w, i, err)
					return
				}
				if res.Applied > 0 {
					applied.Add(1)
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

	entries, err := journal.Read(&log)
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
}
