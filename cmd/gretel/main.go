// Command gretel is GRETEL's one binary; its first argument names the
// role the process plays. "gretel <subcommand> -h" lists its flags.
//
// analyze receives agent event streams (or, with -replay, a synthesized
// one), detects faults, localizes the responsible operation, runs
// root-cause analysis and prints reports. -telemetry serves /metrics,
// /healthz, /debug/pprof/, /reports and /agents (and /traces with
// -explain); -wal makes ingest durable across restarts, and restarting
// on the same -listen and -wal is the failover: the agents redial and
// replay their spool into the new process.
//
//	gretel analyze -listen :6166 -library fingerprints.json -telemetry :6167
//	gretel analyze -replay 40000 -fault-every 500 -json -wal /var/lib/gretel/wal
//
// agent drives a workload on the simulated deployment, taps and parses
// every wire message as the paper's Bro agents do, and streams the
// events to an analyzer.
//
//	gretel agent -analyzer 127.0.0.1:6166 -parallel 100 -faults 4 -duration 5m
//	gretel agent -analyzer 127.0.0.1:6166 -per-node -spool 262144
//
// experiments regenerates the tables and figures of the paper's §7;
// reanalyze runs only when named.
//
//	gretel experiments -exp all -out out
//	gretel experiments -exp reanalyze -wal-dir /var/lib/gretel/wal -wal-from 1000 -wal-to 2000
//
// fingerprint learns the catalog's fingerprints (Algorithm 1), prints
// Table 1 and saves the library for analyze -library.
//
//	gretel fingerprint -seed 1 -runs 2 -o fingerprints.json
//
// analyze drains on SIGINT or SIGTERM alike.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
)

// command is one subcommand: it parses its own arguments and returns an
// error instead of exiting, so each can run in-process under test.
type command struct {
	name, summary string
	run           func(args []string) error
}

var commands = []command{
	{"analyze", "receive agent streams (or -replay), detect and localize faults, print reports", runAnalyze},
	{"agent", "drive the simulated deployment and stream its tapped events to an analyzer", runAgent},
	{"experiments", "regenerate the paper's tables and figures", runExperiments},
	{"fingerprint", "learn the fingerprint library offline and print Table 1", runFingerprint},
}

func main() { os.Exit(dispatch(os.Args[1:], os.Stderr)) }

// dispatch runs the subcommand args[0] names and returns the exit code:
// 0 on success (and for -h), 2 for a usage error, 1 for any other
// failure.
func dispatch(args []string, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	for _, c := range commands {
		if c.name != args[0] {
			continue
		}
		err := c.run(args[1:])
		if err == nil || errors.Is(err, flag.ErrHelp) {
			return 0
		}
		fmt.Fprintf(stderr, "gretel %s: %v\n", c.name, err)
		if errors.As(err, new(usageError)) {
			return 2
		}
		return 1
	}
	fmt.Fprintf(stderr, "gretel: unknown subcommand %q\n", args[0])
	usage(stderr)
	return 2
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: gretel <subcommand> [flags]")
	for _, c := range commands {
		fmt.Fprintf(w, "  %-12s %s\n", c.name, c.summary)
	}
	fmt.Fprintln(w, `run "gretel <subcommand> -h" for its flags`)
}
