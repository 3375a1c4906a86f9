package main

import (
	"fmt"
	"log"

	"gretel/internal/telemetry"
	"gretel/internal/tsdb"
)

// runTSDB is the embedded time-series store behind -telemetry-export:
// InfluxDB line protocol in, JSON range queries out, CRC-checked
// segments under -dir that recovery replays (torn tails quarantined,
// counted) before /healthz goes ready.
func runTSDB(args []string) error {
	p := newProc("tsdb", "")
	listen := p.fs.String("listen", ":9870", "address to serve /write, /query, /series, /metrics on")
	dir := p.fs.String("dir", "gretel-tsdb-data", "data directory for segments")
	if err := p.parse(args); err != nil {
		return err
	}

	telemetry.SetNotReadyReason("recovering segments")
	store, err := tsdb.Open(tsdb.Options{Dir: *dir})
	if err != nil {
		return err
	}
	st := store.Stats()
	if st.Recovered > 0 || st.SkippedBytes > 0 {
		log.Printf("recovered %d points across %d series from %d segments (%d bytes quarantined)",
			st.Recovered, st.Series, st.Segments, st.SkippedBytes)
	}
	if err := p.start(*listen, store.Mounts()...); err != nil {
		store.Close()
		return err
	}
	p.ready()

	// Stop accepting writes before the store closes.
	untilSignal(p.stop)
	if err := store.Close(); err != nil {
		return fmt.Errorf("closing store: %w", err)
	}
	final := store.Stats()
	log.Printf("stopped: %d points in %d series (%d rejected lines)", final.Points, final.Series, final.Rejected)
	return nil
}
