package hansel

import (
	"testing"
	"time"

	"gretel/internal/trace"
)

var epoch = time.Date(2016, 12, 12, 0, 0, 0, 0, time.UTC)

func at(sec int) time.Time { return epoch.Add(time.Duration(sec) * time.Second) }

func ev(sec int, opID uint64, conn uint64, status int) trace.Event {
	return trace.Event{
		Time:   at(sec),
		Type:   trace.RESTResponse,
		API:    trace.RESTAPI(trace.SvcNova, "GET", "/v2.1/servers/{id}"),
		OpID:   opID,
		ConnID: conn,
		Status: status,
	}
}

func TestBucketDelaysStitching(t *testing.T) {
	s := New(Config{BucketWindow: 30 * time.Second})
	s.Ingest(ev(0, 1, 1, 200))
	if s.Stitched != 0 {
		t.Fatal("message stitched before the bucket window elapsed")
	}
	// A message 31s later drains the first.
	s.Ingest(ev(31, 1, 2, 200))
	if s.Stitched != 1 {
		t.Fatalf("stitched = %d, want 1", s.Stitched)
	}
}

func TestFlushDrainsEverything(t *testing.T) {
	s := New(Config{})
	for i := 0; i < 5; i++ {
		s.Ingest(ev(i, 1, uint64(i+1), 200))
	}
	s.Flush(at(10))
	if s.Stitched != 5 {
		t.Fatalf("stitched = %d, want 5", s.Stitched)
	}
}

func TestChainsLinkByIdentifier(t *testing.T) {
	s := New(Config{BucketWindow: time.Second})
	s.Ingest(ev(0, 7, 1, 200))
	s.Ingest(ev(1, 7, 2, 200))
	s.Ingest(ev(2, 7, 3, 500)) // fault in the same operation
	s.Flush(at(10))
	reps := s.Reports()
	if len(reps) != 1 {
		t.Fatalf("reports = %d", len(reps))
	}
	if len(reps[0].Chain) != 3 {
		t.Fatalf("chain length = %d, want 3 (all op-7 messages)", len(reps[0].Chain))
	}
}

func TestSeparateOperationsSeparateChains(t *testing.T) {
	s := New(Config{BucketWindow: time.Second})
	s.Ingest(ev(0, 1, 1, 200))
	s.Ingest(ev(1, 2, 2, 200))
	s.Flush(at(10))
	if s.Chains() != 2 {
		t.Fatalf("chains = %d, want 2", s.Chains())
	}
}

func TestMergeOnBridgingMessage(t *testing.T) {
	s := New(Config{BucketWindow: time.Second})
	s.Ingest(ev(0, 1, 10, 200)) // chain A: op 1, conn 10
	s.Ingest(ev(1, 2, 20, 200)) // chain B: op 2, conn 20
	// A message sharing conn 10 and op 2 bridges both chains.
	bridge := ev(2, 2, 10, 200)
	s.Ingest(bridge)
	s.Flush(at(10))
	if s.Merges != 1 {
		t.Fatalf("merges = %d, want 1", s.Merges)
	}
	if s.Chains() != 1 {
		t.Fatalf("chains = %d, want 1 after merge", s.Chains())
	}
}

func TestReportLatencyIsBucketWindow(t *testing.T) {
	s := New(Config{BucketWindow: 30 * time.Second})
	fault := ev(0, 1, 1, 503)
	s.Ingest(fault)
	s.Flush(at(100))
	reps := s.Reports()
	if len(reps) != 1 {
		t.Fatalf("reports = %d", len(reps))
	}
	if got := reps[0].ReportedAt.Sub(fault.Time); got != 30*time.Second {
		t.Fatalf("report latency = %v, want 30s", got)
	}
}

func TestChainExpiry(t *testing.T) {
	s := New(Config{BucketWindow: time.Second, ChainTTL: 60 * time.Second})
	s.Ingest(ev(0, 1, 1, 200))
	s.Ingest(ev(2, 1, 2, 200))
	// Much later activity on a different op expires the idle chain.
	s.Ingest(ev(300, 2, 3, 200))
	s.Ingest(ev(302, 2, 4, 200))
	s.Flush(at(400))
	if s.Chains() != 1 {
		t.Fatalf("chains = %d, want 1 after expiry", s.Chains())
	}
}

func TestMaxChainLenBounds(t *testing.T) {
	s := New(Config{BucketWindow: time.Second, MaxChainLen: 10})
	for i := 0; i < 50; i++ {
		s.Ingest(ev(i, 1, uint64(i+1), 200))
	}
	s.Flush(at(100))
	for _, c := range s.chains {
		if len(c.Events) > 10 {
			t.Fatalf("chain grew to %d", len(c.Events))
		}
	}
}

func TestChainAPIs(t *testing.T) {
	s := New(Config{BucketWindow: time.Second})
	s.Ingest(ev(0, 1, 1, 200))
	s.Flush(at(10))
	for _, c := range s.chains {
		apis := c.APIs()
		if len(apis) != 1 || apis[0].Service != trace.SvcNova {
			t.Fatalf("APIs = %v", apis)
		}
	}
}

func TestTenantLinkingMergesOperations(t *testing.T) {
	// With a small tenant space, two different operations share a tenant
	// identifier and land in one chain; the fault chain then reports both.
	s := New(Config{BucketWindow: time.Second, TenantBuckets: 1})
	s.Ingest(ev(0, 1, 1, 200))
	s.Ingest(ev(1, 2, 2, 200)) // different op, same tenant bucket
	s.Ingest(ev(2, 1, 3, 503)) // fault in op 1
	s.Flush(at(10))
	reps := s.Reports()
	if len(reps) != 1 {
		t.Fatalf("reports = %d", len(reps))
	}
	if got := reps[0].OperationsLinked(); got != 2 {
		t.Fatalf("operations linked = %d, want 2 (tenant over-linking)", got)
	}

	// Without tenant linking the chain holds only the faulty operation.
	s2 := New(Config{BucketWindow: time.Second})
	s2.Ingest(ev(0, 1, 1, 200))
	s2.Ingest(ev(1, 2, 2, 200))
	s2.Ingest(ev(2, 1, 3, 503))
	s2.Flush(at(10))
	if got := s2.Reports()[0].OperationsLinked(); got != 1 {
		t.Fatalf("operations linked = %d, want 1", got)
	}
}
