package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"securexml/internal/obs"
)

// warmPoolActive gauges how many warm-up workers are deriving permissions
// right now; zero between WarmSessions calls.
var warmPoolActive = obs.Default().Gauge("xmlsec_warm_pool_active")

// Warm derives the session's axiom-14 permissions without returning them,
// so a later view, query, transform or write starts from the cache
// instead of a cold evaluation. The first warmed user also fills the database's cross-user
// rule cache, making every other user's warm-up cheap.
func (s *Session) Warm(ctx context.Context) error {
	start := time.Now()
	_, err := s.currentPerms(ctx, s.db.gen())
	if err != nil {
		sessionOp("warm", "error")
		s.db.recordCtx(ctx, "warm", s.user, "", "error: "+err.Error(), time.Since(start))
		return err
	}
	sessionOp("warm", "ok")
	return nil
}

// WarmSessions derives the permissions of many users through a bounded
// worker pool, sharing the cross-user rule cache so N cold users cost
// roughly one document scan plus per-user merges. users nil means every
// declared user; workers <= 0 means GOMAXPROCS. It returns how many users
// were warmed successfully and the first error encountered (remaining
// users are still attempted — a bad user must not shadow the rest of the
// fleet). The warm-up races harmlessly with concurrent writes: permissions
// invalidated mid-warm are simply patched or re-derived on next use.
func (db *Database) WarmSessions(ctx context.Context, users []string, workers int) (int, error) {
	if users == nil {
		users = db.Users()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(users) {
		workers = len(users)
	}
	start := time.Now()
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		warmed   int
		firstErr error
	)
	work := make(chan string)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			warmPoolActive.Add(1)
			defer warmPoolActive.Add(-1)
			for user := range work {
				s, err := db.Session(user)
				if err == nil {
					err = s.Warm(ctx)
				}
				mu.Lock()
				if err != nil {
					if firstErr == nil {
						firstErr = fmt.Errorf("core: warming %q: %w", user, err)
					}
				} else {
					warmed++
				}
				mu.Unlock()
			}
		}()
	}
	for _, u := range users {
		if ctx.Err() != nil {
			break
		}
		work <- u
	}
	close(work)
	wg.Wait()
	if firstErr == nil && ctx.Err() != nil {
		firstErr = ctx.Err()
	}
	outcome := "ok"
	if firstErr != nil {
		outcome = "error: " + firstErr.Error()
	}
	db.recordCtx(ctx, "warm-sessions", "system",
		fmt.Sprintf("%d/%d users, %d workers", warmed, len(users), workers), outcome, time.Since(start))
	return warmed, firstErr
}
