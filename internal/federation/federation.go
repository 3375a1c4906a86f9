// Package federation partitions the monitored fleet across N analyzer
// instances and merges their output back into one cluster view.
//
// The division of labor keeps the protocol thin: analyzers stay plain
// single-process gretel instances, each exposing its report history at
// /reports (ReportLog); agents stay plain resilient senders, pointed at
// their analyzer by a Resolve hook instead of a static address; and the
// coordinator owns all the federation logic — rendezvous-hashed
// assignment (Assign), member liveness probing with epoch bumps, report
// pulling, and deterministic merge ordering (Merger). Analyzer failover
// is therefore "redial the replacement": the coordinator reassigns the
// dead member's agents, the agents' next redial resolves to the
// survivor, and the PR 3 spill ring replays everything it retained with
// a fresh session hello so the replacement adopts the stream instead of
// misreading its unseen prefix as loss.
//
// Reports carry (member id, analyzer epoch, member-local seq) in an
// Envelope; the merger emits them in fault-arrival order within a
// bounded reorder window, so a federation of one is byte-identical to a
// bare analyzer (enforced by TestOneMemberFederationParity, the same
// discipline as the detect-worker parity tests).
package federation

import (
	"encoding/json"
	"hash/fnv"
	"time"
)

// Envelope wraps one member report with its global ordering key. Report
// is the member's core.Report exactly as the member marshaled it — the
// coordinator never re-encodes report bodies, which is what makes
// merged output byte-comparable to a bare analyzer's.
type Envelope struct {
	// Member is the producing analyzer instance.
	Member string `json:"member"`
	// Epoch is the coordinator's assignment epoch when the report was
	// ingested; it bumps on every membership change (death, recovery,
	// restart), so readers can correlate report provenance with
	// failover boundaries.
	Epoch uint64 `json:"epoch"`
	// Seq is the member-local report sequence number (1-based, from the
	// member's ReportLog; restarts reset it along with the boot id).
	Seq uint64 `json:"seq"`
	// At is the member's fault-arrival timestamp (Report.DetectedAt) —
	// the global merge-ordering key.
	At time.Time `json:"at"`
	// Report is the member-encoded report body, verbatim.
	Report json.RawMessage `json:"report"`
}

// Assign picks the member that owns key from the given candidates by
// highest-random-weight (rendezvous) hashing. The choice is
// deterministic in (key, member set) and minimally disruptive: removing
// a member moves only the keys it owned, and restoring it moves exactly
// those keys back. Returns "" when members is empty.
func Assign(key string, members []string) string {
	var (
		best       string
		bestWeight uint64
		found      bool
	)
	for _, m := range members {
		h := fnv.New64a()
		h.Write([]byte(m))
		h.Write([]byte{0})
		h.Write([]byte(key))
		w := h.Sum64()
		// Ties break toward the lexicographically smaller member so the
		// result stays independent of input order.
		if !found || w > bestWeight || (w == bestWeight && m < best) {
			best, bestWeight, found = m, w, true
		}
	}
	return best
}
