// Command fudjsh is an interactive shell for the FUDJ engine. By
// default it opens an in-process database preloaded with the synthetic
// datasets and the three reference join libraries; with -connect it
// becomes a network client for a running fudjd, with automatic retry
// of retryable failures and idempotent resubmission.
//
//	fudjsh -c "SELECT COUNT(*) FROM parks p, wildfires w
//	           WHERE spatial_join(p.boundary, w.location, 32);"
//	echo "EXPLAIN SELECT ...;" | fudjsh
//	fudjsh                                  # interactive; \q quits
//	fudjsh -connect http://127.0.0.1:7531   # against a fudjd
//	fudjsh -connect host1:7531,host2:7531   # failover across instances
//
// Ctrl-C cancels the in-flight query (the structured cancellation
// error is printed); a second Ctrl-C exits the shell. In -c and script
// (piped stdin) mode the exit status is non-zero when execution ended
// in an error.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"fudj/internal/serve/client"
	"fudj/internal/shell"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		command  = flag.String("c", "", "statements to execute and exit")
		connect  = flag.String("connect", "", "connect to fudjd server(s) instead of opening an in-process database; a comma-separated list (host1:7531,host2:7531) enables client-side failover")
		session  = flag.String("session", "", "server session name with -connect (default \"default\")")
		deadline = flag.Duration("deadline", 0, "overall deadline for -c execution (propagated to the server with -connect)")
		records  = flag.Int("records", 2000, "records per demo dataset")
		nodes    = flag.Int("nodes", 4, "simulated cluster nodes")
		cores    = flag.Int("cores", 2, "cores per node")
		noData   = flag.Bool("empty", false, "start with no demo datasets")
		doTrace  = flag.Bool("trace", false, "collect and print execution spans (with -c)")
		traceOut = flag.String("trace-out", "", "write a Chrome trace JSON for the last -c query (local only)")
	)
	flag.Parse()

	var (
		ex  shell.Executor
		err error
	)
	if *connect != "" {
		if *traceOut != "" {
			fmt.Fprintln(os.Stderr, "fudjsh: -trace-out needs a local database; it cannot be combined with -connect")
			return 2
		}
		// The idempotency-key prefix must be unique per client process
		// within the session, or two shells would replay each other's
		// responses.
		c, cerr := client.New(client.Config{
			BaseURL:     *connect,
			Session:     *session,
			QueryPrefix: fmt.Sprintf("sh%d-%d", os.Getpid(), time.Now().UnixNano()),
			Seed:        time.Now().UnixNano(),
		})
		if cerr != nil {
			fmt.Fprintln(os.Stderr, "fudjsh:", cerr)
			return 1
		}
		ex = shell.NewRemote(c)
	} else {
		db, serr := shell.Setup(shell.Config{
			Nodes: *nodes, Cores: *cores, Records: *records, LoadDemo: !*noData,
		})
		if serr != nil {
			fmt.Fprintln(os.Stderr, "fudjsh:", serr)
			return 1
		}
		ex = shell.NewLocal(db)
	}
	defer ex.Close()

	// First Ctrl-C cancels the in-flight query; with nothing in flight
	// (or on the next one) the shell exits.
	canceler := shell.NewCanceler()
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		for range sigc {
			if !canceler.CancelActive() {
				fmt.Fprintln(os.Stderr, "\nfudjsh: interrupted")
				os.Exit(130)
			}
		}
	}()

	baseCtx := func() (context.Context, context.CancelFunc) {
		if *deadline > 0 {
			return context.WithTimeout(context.Background(), *deadline)
		}
		return context.WithCancel(context.Background())
	}

	if *command != "" {
		ctx, cancel := baseCtx()
		defer cancel()
		if *traceOut != "" {
			err = shell.ExecuteAllChrome(ctx, ex.DB(), os.Stdout, *command, *traceOut, canceler)
		} else {
			err = shell.ExecuteAll(ctx, ex, os.Stdout, *command, *doTrace, canceler)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "fudjsh:", err)
			return 1
		}
		return 0
	}

	err = shell.Repl(ex, os.Stdin, os.Stdout, canceler)
	// Interactive sessions end cleanly whatever the last statement did;
	// scripts piped on stdin propagate a trailing failure.
	if err != nil && !isTerminal(os.Stdin) {
		return 1
	}
	return 0
}

// isTerminal reports whether f is an interactive terminal.
func isTerminal(f *os.File) bool {
	st, err := f.Stat()
	return err == nil && st.Mode()&os.ModeCharDevice != 0
}
