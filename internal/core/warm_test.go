package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"securexml/internal/obs"
	"securexml/internal/policy"
	"securexml/internal/workload"
	"securexml/internal/xupdate"
)

func TestSharedSessionSingleton(t *testing.T) {
	db := hospital(t)
	a, err := db.Session("laporte")
	if err != nil {
		t.Fatal(err)
	}
	b, err := db.Session("laporte")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("Session returned distinct sessions for one user")
	}
	if _, err := db.Session("staff"); !errors.Is(err, ErrNotUser) {
		t.Fatalf("role login: got %v, want ErrNotUser", err)
	}
	if _, err := db.Session("nobody"); !errors.Is(err, ErrUnknownUser) {
		t.Fatalf("unknown user: got %v, want ErrUnknownUser", err)
	}
}

func TestWarmSessionsAllUsers(t *testing.T) {
	db := hospital(t)
	n, err := db.WarmSessions(context.Background(), nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(db.Users()); n != want {
		t.Fatalf("warmed %d users, want %d", n, want)
	}
	// A warmed shared session serves its first View from the cache.
	before := obs.Default().Counter("xmlsec_view_cache_hits_total").Value()
	s, err := db.Session("laporte")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.View(); err != nil {
		t.Fatal(err)
	}
	if after := obs.Default().Counter("xmlsec_view_cache_hits_total").Value(); after != before+1 {
		t.Fatalf("view after warm-up: cache hits %d -> %d, want a hit", before, after)
	}
	if g := obs.Default().Gauge("xmlsec_warm_pool_active").Value(); g != 0 {
		t.Fatalf("warm pool gauge %d after completion, want 0", g)
	}
}

func TestWarmSessionsBadUser(t *testing.T) {
	db := hospital(t)
	n, err := db.WarmSessions(context.Background(), []string{"laporte", "ghost", "beaufort"}, 2)
	if err == nil {
		t.Fatal("want error for unknown user")
	}
	if n != 2 {
		t.Fatalf("warmed %d, want 2 (bad user must not shadow the rest)", n)
	}
}

func TestWarmSessionsCanceled(t *testing.T) {
	db := hospital(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.WarmSessions(ctx, nil, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestSharedScanChurnRace replays a workload.ChurnPlan — many distinct
// users, few ops each — against one database while a writer mutates the
// document and the policy and WarmSessions repeatedly re-warms the fleet.
// This is the shared rule cache's contention path: concurrent cold
// evaluations racing cache fills, invalidation by doc version and policy
// epoch. Run under -race; the assertion is that nothing errors.
func TestSharedScanChurnRace(t *testing.T) {
	db := hospital(t)
	users := []string{"beaufort", "laporte", "richard", "robert", "franck"}
	plan := workload.ChurnPlan(users, 40, 3, 7)
	errs := make(chan error, 256)
	fail := func(err error) {
		if err != nil {
			select {
			case errs <- err:
			default:
			}
		}
	}
	var wg sync.WaitGroup

	// Churn sessions: each plan entry opens the user's shared session cold
	// (or invalidated) and reads a few times.
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < len(plan); i += 4 {
				s, err := db.Session(plan[i].User)
				if err != nil {
					fail(err)
					return
				}
				for k := 0; k < plan[i].Ops; k++ {
					if _, err := s.Query("//service"); err != nil {
						fail(err)
						return
					}
				}
			}
		}()
	}

	// Writer: document updates (version moves) and policy changes (epoch
	// moves), both of which must invalidate the shared rule cache.
	wg.Add(1)
	go func() {
		defer wg.Done()
		w, err := db.Session("laporte")
		if err != nil {
			fail(err)
			return
		}
		for i := 0; i < 10; i++ {
			op := &xupdate.Op{Kind: xupdate.Update, Select: "//diagnosis", NewValue: fmt.Sprintf("v%d", i)}
			if _, err := w.Update(op); err != nil {
				fail(err)
				return
			}
			if err := db.Grant(policy.Read, "//service", "doctor"); err != nil {
				fail(err)
				return
			}
		}
	}()

	// Concurrent warm-ups racing the writer's invalidations.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if _, err := db.WarmSessions(context.Background(), users, 3); err != nil {
					fail(err)
					return
				}
			}
		}()
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
