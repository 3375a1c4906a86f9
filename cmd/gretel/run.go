package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"gretel/internal/telemetry"
)

// usageError is a command-line mistake (an unknown flag, a value that
// parses but cannot be meant), reported before anything starts; main
// exits 2 for it.
type usageError struct{ error }

// proc is the run helper every subcommand shares. It owns what two or
// more of them need alike: the flag set and its validation, and the
// introspection endpoint with its /healthz readiness bracket.
type proc struct {
	fs       *flag.FlagSet
	shutdown func() error
}

// newProc returns the helper for subcommand name.
func newProc(name string) *proc {
	return &proc{fs: flag.NewFlagSet("gretel "+name, flag.ContinueOnError)}
}

// parse parses args, then runs each check in turn; every mistake comes
// back as a usageError.
func (p *proc) parse(args []string, checks ...func() error) error {
	if err := p.fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return usageError{err}
	}
	if p.fs.NArg() > 0 {
		return usageError{fmt.Errorf("unexpected argument %q", p.fs.Arg(0))}
	}
	for _, check := range checks {
		if err := check(); err != nil {
			return usageError{err}
		}
	}
	return nil
}

// start serves the introspection endpoint on addr (empty: none) with
// the subcommand's mounts.
func (p *proc) start(addr string, mounts ...telemetry.Mount) error {
	if addr == "" {
		return nil
	}
	bound, shutdown, err := telemetry.Serve(addr, nil, mounts...)
	if err != nil {
		return err
	}
	p.shutdown = shutdown
	var also string
	for _, m := range mounts {
		also += m.Pattern + ", "
	}
	log.Printf("telemetry on http://%s/metrics (%spprof at /debug/pprof/)", bound, also)
	return nil
}

// ready flips /healthz to 200: the subcommand's loop is live.
func (p *proc) ready() { telemetry.SetReady(true) }

// stop undoes start: /healthz answers 503 again and the endpoint
// closes. Calling it twice is safe.
func (p *proc) stop() {
	telemetry.SetReady(false)
	if p.shutdown != nil {
		p.shutdown()
		p.shutdown = nil
	}
}

// untilSignal blocks until SIGINT or SIGTERM, then runs drain: `kill`,
// systemd and container stop end a subcommand the way Ctrl-C does.
func untilSignal(drain func()) {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	log.Printf("%v: draining", <-sig)
	drain()
}
