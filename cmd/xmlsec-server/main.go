// Command xmlsec-server serves a secure XML database over HTTP (see
// internal/server for the endpoints). Identification is HTTP Basic Auth
// username only — put a real authenticator in front for anything beyond
// demos.
//
// Usage:
//
//	xmlsec-server                      # paper scenario on :8080
//	xmlsec-server -addr :9090
//	xmlsec-server -snapshot db.sxml    # serve a restored snapshot
//	xmlsec-server -pprof               # also expose /debug/pprof/
//	xmlsec-server -accesslog access.jsonl
//	xmlsec-server -warm 4              # derive all users' permissions, 4 workers
//
// Telemetry is always on: Prometheus text on /metrics, an expvar snapshot
// on /debug/vars, and a structured JSON access log (stderr by default,
// -accesslog off to silence). Every request is traced into a bounded
// in-memory ring: GET /traces lists recent summaries, GET /trace/{id}
// returns the full span tree, and -slowtrace sets the latency above
// which whole trees are logged through the access logger.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"securexml/internal/core"
	"securexml/internal/scenario"
	"securexml/internal/server"
)

// attachJournal opens (or creates) the append-only command log and hooks
// it into the database, continuing from seqStart.
func attachJournal(db *core.Database, path string, seqStart uint64) error {
	if path == "" {
		return nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	db.AttachJournal(f, seqStart)
	fmt.Printf("journaling to %s (from seq %d)\n", path, seqStart)
	return nil
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	snapshot := flag.String("snapshot", "", "serve a database restored from this snapshot file")
	journalPath := flag.String("journal", "", "append executed modifications to this command log")
	recover := flag.Bool("recover", false, "replay the journal on top of the snapshot before serving")
	pprof := flag.Bool("pprof", false, "expose runtime profiles under /debug/pprof/")
	accessLog := flag.String("accesslog", "stderr", `structured access log: "stderr", "off", or a file path`)
	warm := flag.Int("warm", 0, "derive every user's permissions at startup through this many workers (0 = off)")
	slowTrace := flag.Duration("slowtrace", 500*time.Millisecond, "log the full span tree of requests slower than this (0 = off)")
	flag.Parse()

	var db *core.Database
	if *snapshot != "" {
		f, err := os.Open(*snapshot)
		if err != nil {
			fatal(err)
		}
		var seqStart uint64
		if *recover {
			if *journalPath == "" {
				fatal(fmt.Errorf("-recover requires -journal"))
			}
			jf, err := os.Open(*journalPath)
			if err != nil {
				fatal(err)
			}
			db, seqStart, err = core.Recover(f, jf)
			jf.Close()
			f.Close()
			if err != nil {
				fatal(err)
			}
			fmt.Printf("recovered %s + %s (seq %d)\n", *snapshot, *journalPath, seqStart)
		} else {
			db, err = core.Open(f)
			f.Close()
			if err != nil {
				fatal(err)
			}
			fmt.Printf("restored %s\n", *snapshot)
		}
		if err := attachJournal(db, *journalPath, seqStart); err != nil {
			fatal(err)
		}
	} else {
		var err error
		db, err = scenario.New()
		if err != nil {
			fatal(err)
		}
		fmt.Println("serving the paper's hospital scenario")
		fmt.Println("users: beaufort, laporte, richard, robert, franck (basic auth, any password)")
		if err := attachJournal(db, *journalPath, 0); err != nil {
			fatal(err)
		}
	}
	opts := []server.Option{server.WithSlowTraceThreshold(*slowTrace)}
	if *pprof {
		opts = append(opts, server.WithPprof())
		fmt.Println("pprof enabled on /debug/pprof/")
	}
	switch *accessLog {
	case "off":
	case "stderr":
		opts = append(opts, server.WithAccessLog(os.Stderr))
	default:
		f, err := os.OpenFile(*accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fatal(err)
		}
		opts = append(opts, server.WithAccessLog(f))
		fmt.Printf("access log -> %s\n", *accessLog)
	}
	if *warm > 0 {
		start := time.Now()
		n, err := db.WarmSessions(context.Background(), nil, *warm)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("warmed %d user views in %s (%d workers)\n", n, time.Since(start).Round(time.Millisecond), *warm)
	}
	st := db.Stats()
	fmt.Printf("listening on %s (%d nodes, %d rules, %d users); metrics on /metrics\n", *addr, st.Nodes, st.Rules, st.Users)
	if err := http.ListenAndServe(*addr, server.New(db, opts...)); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "xmlsec-server:", err)
	os.Exit(1)
}
