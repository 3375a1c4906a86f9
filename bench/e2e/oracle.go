package e2e

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"gretel/internal/agent"
	"gretel/internal/core"
	"gretel/internal/trace"
)

// verdicts summarises what one pass over an input concluded: a digest of
// every report byte for byte, and how the reports score against the
// injected faults.
type verdicts struct {
	Digest  string
	Reports int
	// Faults is the number of faults injected, Hits how many of them got
	// a report whose Candidates contain the true operation.
	Faults, Hits int
	// Sums over reports, for the per-layer means.
	Beta, Candidates, RootCauses int
	Precision                    float64
}

func (v verdicts) missed() int { return v.Faults - v.Hits }

// score digests the reports and grades them. Tape reports are graded
// from the benchmark's own (ConnID, MsgID) → operation table, because
// the monitor ran without ground truth; synthetic streams carry the
// truth in the events themselves.
func (in *Inputs) score(workload string, reps []*core.Report) (verdicts, error) {
	body, err := json.Marshal(reps)
	if err != nil {
		return verdicts{}, fmt.Errorf("encoding reports: %w", err)
	}
	sum := sha256.Sum256(body)
	v := verdicts{Digest: hex.EncodeToString(sum[:]), Reports: len(reps)}
	hit := make(map[uint64]bool)
	for _, rep := range reps {
		v.Beta += rep.Beta
		v.Candidates += len(rep.Candidates)
		v.RootCauses += len(rep.RootCauses)
		v.Precision += rep.Precision
		op := opRef{rep.Fault.OpID, rep.TruthOp}
		if in.Tape != nil {
			op = in.truth[faultKey{rep.Fault.ConnID, rep.Fault.MsgID}]
			if !in.injected[op.id] {
				continue // a relayed or secondary error, not an injected fault
			}
		}
		for _, c := range rep.Candidates {
			if c == op.name {
				hit[op.id] = true
				break
			}
		}
	}
	v.Hits = len(hit)
	v.Faults = in.synthFaults
	if in.Tape != nil {
		v.Faults = len(in.injected)
	}
	return v, nil
}

// stream is the synthetic event stream a direct workload ingests.
func (in *Inputs) stream(workload string) []trace.Event {
	if workload == "direct-storm" {
		return in.Storm
	}
	return in.Clean
}

// reference computes what the workload's input must produce, in process
// and with nothing in between: tape packets through one Monitor straight
// into Analyzer.Ingest (state applied where it was recorded), or the
// synthetic stream straight into Ingest. Every lap's digest must equal
// this one. wal-recover's reference applies no state, because a WAL
// holds events only and boot recovery starts with an empty rca.Store.
func (in *Inputs) reference(workload string) (verdicts, error) {
	s := newSUT(in.Lib, nil)
	switch {
	case in.Tape != nil:
		withState := workload != "wal-recover"
		mon := agent.NewMonitor("agent", s.a.Ingest, nil)
		states := in.Tape.States()
		for i, si := 0, 0; i < in.Tape.Len(); i++ {
			for ; si < len(states) && states[si].After <= i; si++ {
				if withState {
					s.store.Apply(states[si].Update)
				}
			}
			mon.HandlePacket(in.Tape.Packet(i))
		}
	default:
		evs := in.stream(workload)
		for i, si := 0, 0; i < len(evs); i++ {
			for ; si < len(in.StormStates) && workload == "direct-storm" && in.StormStates[si].After <= i; si++ {
				s.store.Apply(in.StormStates[si].Update)
			}
			s.a.Ingest(evs[i])
		}
	}
	s.a.Close()
	return in.score(workload, s.a.Reports())
}
