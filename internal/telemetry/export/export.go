// Package export is the telemetry egress pipeline: a periodic sampler
// walks the registry, computes per-interval deltas, encodes InfluxDB
// line protocol, and hands batches to a shipper that POSTs them to
// `gretel tsdb` (or any line-protocol /write endpoint) with bounded
// buffering and fully-accounted loss. See DESIGN.md "Telemetry export".
package export

import (
	"errors"
	"fmt"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gretel/internal/telemetry"
)

// Options configures an Exporter.
type Options struct {
	// URL is the TSDB write endpoint; required.
	URL string
	// Interval between samples; default 1s.
	Interval time.Duration
	// Buffer bounds the shipper ring in points; default 10000.
	Buffer int
	// Proc names this process in the proc tag ("gretel",
	// "gretel-agent", "gretel-experiments").
	Proc string
	// Registry defaults to telemetry.Default().
	Registry *telemetry.Registry
}

// Exporter runs the sample→encode→ship loop on a ticker.
type Exporter struct {
	sampler  *Sampler
	shipper  *Shipper
	interval time.Duration

	sampled  atomic.Uint64
	mSampled *telemetry.Counter

	stop      chan struct{}
	done      chan struct{}
	closeOnce sync.Once
}

// ExporterStats extends the shipper ledger with the sampler's count.
// Sampled == Enqueued always (every sampled point is enqueued), so
// after Close: Delivered + Shed == Sampled.
type ExporterStats struct {
	Sampled uint64 `json:"sampled"`
	ShipperStats
}

// ErrNoURL reports Start without a destination.
var ErrNoURL = errors.New("export: no URL")

// Start builds and starts an exporter. It returns an error only for a
// missing URL; a down receiver is not an error — the shipper retries.
func Start(opts Options) (*Exporter, error) {
	if opts.URL == "" {
		return nil, ErrNoURL
	}
	// Normalize: a trailing slash would make the endpoint "…//write",
	// which ServeMux 301s; Go's client downgrades the redirected POST to
	// GET and every batch would retry until shed — silent zero delivery.
	base := strings.TrimRight(opts.URL, "/")
	if u, err := url.Parse(base); err != nil || u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("export: invalid URL %q (want e.g. http://host:9187)", opts.URL)
	}
	if opts.Interval <= 0 {
		opts.Interval = time.Second
	}
	if opts.Registry == nil {
		opts.Registry = telemetry.Default()
	}
	e := &Exporter{
		sampler: NewSampler(opts.Registry, opts.Proc),
		shipper: NewShipper(ShipperConfig{
			URL:       base + "/write",
			MaxPoints: opts.Buffer,
		}),
		interval: opts.Interval,
		mSampled: telemetry.GetCounter("export.points_sampled"),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go e.loop()
	return e, nil
}

func (e *Exporter) loop() {
	defer close(e.done)
	tick := time.NewTicker(e.interval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			e.sampleOnce()
		case <-e.stop:
			return
		}
	}
}

// sampleOnce captures one interval and enqueues it. The encode buffer
// is handed to the shipper (which owns it after Enqueue), so each
// interval allocates one buffer; the sampler's internal captures are
// reused.
func (e *Exporter) sampleOnce() {
	data, points := e.sampler.Sample(nil, time.Now())
	if points == 0 {
		return
	}
	e.sampled.Add(uint64(points))
	e.mSampled.Add(uint64(points))
	e.shipper.Enqueue(data, points)
}

// Drain waits for buffered points to deliver, up to timeout.
func (e *Exporter) Drain(timeout time.Duration) bool {
	return e.shipper.Drain(timeout)
}

// Close takes a final sample (so the last partial interval is not
// silently lost), stops the loop, and closes the shipper — after which
// Delivered + Shed == Sampled.
func (e *Exporter) Close() {
	e.closeOnce.Do(func() {
		close(e.stop)
		<-e.done
		e.sampleOnce()
		e.shipper.Close()
	})
}

// Stats returns the loss ledger.
func (e *Exporter) Stats() ExporterStats {
	return ExporterStats{Sampled: e.sampled.Load(), ShipperStats: e.shipper.Stats()}
}
