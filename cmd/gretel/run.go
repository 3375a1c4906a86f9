package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gretel/internal/telemetry"
	"gretel/internal/telemetry/export"
)

// usageError is a command-line mistake (an unknown flag, a value that
// parses but cannot be meant), reported before anything starts; main
// exits 2 for it.
type usageError struct{ error }

// proc is the run helper every subcommand shares. It owns what two or
// more of them need alike: the flag set and its validation, the
// telemetry-export flags and the exporter they start, and the
// introspection endpoint with its /healthz readiness bracket.
type proc struct {
	fs  *flag.FlagSet
	tag string // names this process in exported series; "" = no export flags

	exportURL string
	exportIvl time.Duration
	exportBuf int
	exporter  *export.Exporter
	shutdown  func() error
}

// newProc returns the helper for subcommand name. A non-empty tag
// registers -telemetry-export, -export-interval and -export-buffer.
func newProc(name, tag string) *proc {
	p := &proc{fs: flag.NewFlagSet("gretel "+name, flag.ContinueOnError), tag: tag}
	if tag != "" {
		p.fs.StringVar(&p.exportURL, "telemetry-export", "", "ship per-interval telemetry to this gretel tsdb base URL (e.g. http://127.0.0.1:9870; empty disables)")
		p.fs.DurationVar(&p.exportIvl, "export-interval", time.Second, "sampling interval for -telemetry-export")
		p.fs.IntVar(&p.exportBuf, "export-buffer", 10000, "points buffered in memory while the TSDB is unreachable (oldest shed beyond this, counted in export.points_shed)")
	}
	return p
}

// parse parses args, then validates the export flags and each check in
// turn; every mistake comes back as a usageError.
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
	// Export settings that parse but cannot be meant are refused rather
	// than quietly replaced by the exporter's defaults.
	switch {
	case p.tag != "" && p.exportIvl <= 0:
		return usageError{fmt.Errorf("-export-interval must be > 0, got %v", p.exportIvl)}
	case p.tag != "" && p.exportBuf <= 0:
		return usageError{fmt.Errorf("-export-buffer must be > 0, got %d", p.exportBuf)}
	}
	for _, check := range checks {
		if err := check(); err != nil {
			return usageError{err}
		}
	}
	return nil
}

// start serves the introspection endpoint on addr (empty: none) with
// the subcommand's mounts, and starts the exporter when
// -telemetry-export is set. A down TSDB is not an error: the shipper
// retries with backoff and sheds oldest-first, counted.
func (p *proc) start(addr string, mounts ...telemetry.Mount) error {
	if addr != "" {
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
	}
	if p.exportURL != "" {
		exporter, err := export.Start(export.Options{
			URL: p.exportURL, Interval: p.exportIvl, Buffer: p.exportBuf, Proc: p.tag,
		})
		if err != nil {
			return fmt.Errorf("telemetry export: %w", err)
		}
		p.exporter = exporter
		log.Printf("exporting telemetry to %s every %v (buffer %d points)", p.exportURL, p.exportIvl, p.exportBuf)
	}
	return nil
}

// ready flips /healthz to 200: the subcommand's loop is live.
func (p *proc) ready() { telemetry.SetReady(true) }

// stop undoes start: /healthz answers 503 again, the endpoint closes,
// and the exporter's closed ledger is printed. Calling it twice is safe.
func (p *proc) stop() {
	telemetry.SetReady(false)
	if p.shutdown != nil {
		p.shutdown()
		p.shutdown = nil
	}
	p.closeExport()
}

// closeExport takes the exporter's final sample, drains and closes it,
// and prints its ledger, closed so that sampled == delivered + shed.
// A no-op without an exporter or once done.
func (p *proc) closeExport() {
	if p.exporter == nil {
		return
	}
	p.exporter.Drain(5 * time.Second)
	p.exporter.Close()
	st := p.exporter.Stats()
	p.exporter = nil
	fmt.Printf("export:    sampled %d delivered %d shed %d\n", st.Sampled, st.Delivered, st.Shed)
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
