// Durable event-plane hook: every event entering the analyzer can be
// handed to a write-ahead capture (implemented by wal.Log) before any
// analyzer state mutates, so a crash never loses evidence the process
// had already accepted. The hook is deliberately an interface — core
// stays free of storage dependencies, and tests capture with fakes.

package core

import (
	"gretel/internal/telemetry"
	"gretel/internal/trace"
)

// mCaptureErrors counts appends the durable event plane failed to ack;
// the events were still processed, just not captured.
var mCaptureErrors = telemetry.GetCounter("core.capture_errors")

// Capture is the durable event plane attached with SetCapture.
// AppendBatch must make evs durable (per its own policy) and return the
// record sequence of the last event acked; MarkProcessed is called once
// every record at or below seq has been fully processed, advancing the
// consumer cursor a restart resumes from.
type Capture interface {
	AppendBatch(evs []trace.Event) (lastSeq uint64, err error)
	MarkProcessed(seq uint64)
}

// RecordCapture is a Capture that can also take a batch of events whose
// bodies are already laid out as one batch record: the hand-offs of a
// receiver asked to keep them (agent.Receiver.KeepRecords). AppendRecord
// must write rec, n events' bodies (wal.Log.AppendRecord has the
// layout), with AppendBatch's contract.
type RecordCapture interface {
	Capture
	AppendRecord(rec []byte, n int) (lastSeq uint64, err error)
}

// SetCapture attaches (or with nil detaches) the durable event plane.
// Call from the ingest goroutine, like Ingest — typically once before
// driving events. Boot-time WAL replay runs with capture detached so
// recovered events are not appended a second time.
func (a *Analyzer) SetCapture(c Capture) { a.capture = c }

// TakesRecords reports whether the attached capture is a RecordCapture,
// so that a driver holding the events' bodies should pass them to
// IngestRecord.
func (a *Analyzer) TakesRecords() bool {
	_, ok := a.capture.(RecordCapture)
	return ok
}

// captureEvents opens an ingest call's capture bracket: it hands the
// call's events to the capture hook before any analyzer state mutates
// and returns the last record sequence acked, for markProcessed. A
// RecordCapture is handed rec instead, when the caller has one; either
// way the events are captured once, in one append. Append failure is
// counted and logged but never stops ingest: the analyzer exists to
// observe faults, and a full disk must not blind it.
func (a *Analyzer) captureEvents(evs []trace.Event, rec []byte) uint64 {
	var (
		last uint64
		err  error
	)
	if rc, ok := a.capture.(RecordCapture); ok && len(rec) > 0 {
		last, err = rc.AppendRecord(rec, len(evs))
	} else {
		last, err = a.capture.AppendBatch(evs)
	}
	if err != nil {
		a.Stats.CaptureErrors++
		mCaptureErrors.Inc()
		telemetry.LogFirst("core.capture", "core: durable capture failed (ingest continues uncaptured): %v", err)
	}
	return last
}

// markProcessed closes the bracket: the events captured at the start of
// the call are now fully processed, so the consumer cursor may advance
// to their last record (zero: nothing was captured).
func (a *Analyzer) markProcessed(last uint64) {
	if last > 0 && a.capture != nil {
		a.capture.MarkProcessed(last)
	}
}
