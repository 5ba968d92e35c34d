package daemon

import (
	"context"
	"fmt"
	"io"
	"log"
	"net/http"

	"leaksig/internal/durable"
	"leaksig/internal/obs"
	"leaksig/internal/signature"
	"leaksig/internal/sigserver"
)

// Sigserver configures the signature distribution server; each field is
// the cmd/sigserver flag its comment names, where the defaults and the
// help text live. Of Ops it takes the events and debug fields.
type Sigserver struct {
	Addr  string // -addr
	Sigs  string // -sigs
	Token string // -token

	Journal      string // -journal
	JournalFsync string // -journal-fsync

	Ops
}

// Run is the server: it replays the journal, publishes the seed set, and
// serves on Addr until ctx is cancelled, then drains in-flight requests
// and syncs the journal.
func (c Sigserver) Run(ctx context.Context, _ io.Reader, stdout io.Writer) error {
	ops, err := newOps("sigserver", c.Ops, 0)
	if err != nil {
		return err
	}
	defer ops.close()

	srv := sigserver.New()
	restored := int64(0)
	if c.Journal != "" {
		policy, err := durable.ParseFsyncPolicy(c.JournalFsync)
		if err != nil {
			return fmt.Errorf("-journal-fsync: %v", err)
		}
		var journal *durable.Journal
		srv, journal, err = sigserver.Open(c.Journal, policy)
		if err != nil {
			return fmt.Errorf("opening journal: %v", err)
		}
		// Runs once the listener has drained: the final fsync.
		defer func() {
			if err := journal.Sync(); err != nil {
				log.Printf("journal sync: %v", err)
			}
			journal.Close()
		}()
		ops.reg.Register(obs.JournalCollector(journal.Stats))
		restored = srv.Stats().Seq
		if recovered := journal.Stats().Recovered; recovered > 0 {
			_, v := srv.Current()
			log.Printf("journal %s: replayed %d sets, skipped %d records (default set at version %d)",
				c.Journal, restored, int64(recovered)-restored, v)
		}
	}
	ops.reg.Register(obs.SigserverCollector(srv.Stats))

	srv.OnPublish(func(name string, v int64) {
		log.Printf("published %s version %d", setLabel(name), v)
		ops.ship(obs.Event{Type: "publish", Set: name, Version: v})
	})

	switch {
	case c.Sigs != "":
		set, err := signature.ReadFile(c.Sigs)
		if err != nil {
			return err
		}
		set.Version = 0 // the seed file always takes the next version
		version, err := srv.Publish("", set)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "published %d signatures as version %d\n", set.Len(), version)
	case restored > 0:
		_, v := srv.Current()
		fmt.Fprintf(stdout, "resuming from journal at version %d\n", v)
	default:
		fmt.Fprintln(stdout, "starting empty at version 0 (publish to fill)")
	}

	mux := http.NewServeMux()
	mux.Handle("/", srv.HandlerWithPublish(c.Token))
	mux.Handle("GET /metrics", ops.reg.Handler())
	fmt.Fprintf(stdout, "serving on %s (GET /signatures, /version, /wait, /sets, /stats, /metrics, /healthz, /readyz; POST /publish)\n", c.Addr)
	return ops.serve(ctx, "draining requests", &http.Server{Addr: c.Addr, Handler: mux}, nil)
}
