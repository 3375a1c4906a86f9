// Evidence-trace exports: a human-readable text rendering for the
// /traces endpoints, NDJSON structured logs for offline diffing, and
// Chrome trace-event JSON loadable in Perfetto / chrome://tracing. All
// renderings are pure functions of the trace — deterministic, so two
// runs producing the same traces export byte-identical files.
package tracestore

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// WriteNDJSON writes one JSON object per line per trace — the diffable
// structured-log export.
func WriteNDJSON(w io.Writer, traces []*Trace) error {
	enc := json.NewEncoder(w)
	for _, t := range traces {
		if err := enc.Encode(t); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON writes the traces as one JSON array.
func WriteJSON(w io.Writer, traces []*Trace) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(traces)
}

// chromeEvent is one Chrome trace-event (the Trace Event Format consumed
// by Perfetto and chrome://tracing): ph "X" complete events for spans,
// ph "i" instants for point evidence, ph "M" metadata naming the lanes.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // µs
	Dur  float64        `json:"dur,omitempty"`
	Pid  uint64         `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"` // instant scope
	Args map[string]any `json:"args,omitempty"`
}

// algorithmTid is the synthetic lane carrying Algorithm 2's own steps
// (growth iterations, candidate verdicts, the fault instant). Node span
// lanes start at 1.
const algorithmTid = 0

// WriteChromeTrace writes the traces in Chrome trace-event JSON. Each
// trace becomes one process (pid = trace ID); each node in its span
// tree becomes one thread lane, plus an "algorithm 2" lane holding the
// growth steps and candidate verdicts as instant events. Timestamps are
// event (virtual) time relative to the trace's earliest span, in µs.
func WriteChromeTrace(w io.Writer, traces []*Trace) error {
	events := make([]chromeEvent, 0, 64*len(traces)+2)
	for _, t := range traces {
		events = append(events, chromeEvents(t)...)
	}
	out := struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{TraceEvents: events, DisplayTimeUnit: "ms"}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

func chromeEvents(t *Trace) []chromeEvent {
	// Timebase: the earliest span start (fault time when there are no
	// spans), so every trace starts near ts 0 regardless of how long the
	// replay ran before it.
	t0 := t.FaultTime
	for i := range t.Spans {
		if t.Spans[i].Start.Before(t0) {
			t0 = t.Spans[i].Start
		}
	}
	us := func(at time.Time) float64 { return float64(at.Sub(t0)) / 1e3 }

	// One thread lane per node, in sorted order for determinism.
	nodeSet := map[string]bool{}
	for i := range t.Spans {
		nodeSet[t.Spans[i].Node] = true
	}
	nodes := make([]string, 0, len(nodeSet))
	for n := range nodeSet {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	tid := map[string]int{}
	for i, n := range nodes {
		tid[n] = i + 1
	}

	procName := fmt.Sprintf("trace %d: %s fault at %s", t.ID, t.Kind, t.OffendingAPI)
	evs := []chromeEvent{
		{Name: "process_name", Ph: "M", Pid: t.ID, Tid: algorithmTid,
			Args: map[string]any{"name": procName}},
		{Name: "thread_name", Ph: "M", Pid: t.ID, Tid: algorithmTid,
			Args: map[string]any{"name": "algorithm 2"}},
	}
	for _, n := range nodes {
		name := n
		if name == "" {
			name = "(unknown node)"
		}
		evs = append(evs, chromeEvent{Name: "thread_name", Ph: "M", Pid: t.ID,
			Tid: tid[n], Args: map[string]any{"name": name}})
	}

	for i := range t.Spans {
		sp := &t.Spans[i]
		args := map[string]any{
			"kind": sp.Kind, "start_seq": sp.StartSeq, "end_seq": sp.EndSeq,
		}
		if sp.Status != 0 {
			args["status"] = sp.Status
		}
		if sp.Error != "" {
			args["error"] = sp.Error
		}
		if sp.Fault {
			args["fault"] = true
		}
		if sp.Unpaired {
			evs = append(evs, chromeEvent{Name: sp.API, Cat: sp.Kind, Ph: "i",
				Ts: us(sp.Start), Pid: t.ID, Tid: tid[sp.Node], S: "t", Args: args})
			continue
		}
		dur := float64(sp.Duration) / 1e3
		if dur < 1 {
			dur = 1 // sub-µs exchanges still need a visible slice
		}
		evs = append(evs, chromeEvent{Name: sp.API, Cat: sp.Kind, Ph: "X",
			Ts: us(sp.Start), Dur: dur, Pid: t.ID, Tid: tid[sp.Node], Args: args})
	}

	// Algorithm 2's own steps as instants on the synthetic lane,
	// staggered by a µs each so Perfetto keeps their order visible.
	at := us(t.FaultTime)
	evs = append(evs, chromeEvent{Name: "fault: " + t.OffendingAPI, Cat: "fault",
		Ph: "i", Ts: at, Pid: t.ID, Tid: algorithmTid, S: "t",
		Args: map[string]any{"fault_seq": t.FaultSeq, "kind": t.Kind}})
	for i, g := range t.Growth {
		name := fmt.Sprintf("grow β=%d → %d matched", g.Beta, len(g.Matched))
		if g.Stopped {
			name = fmt.Sprintf("grow β=%d STOPPED (matched set grew, kept previous)", g.Beta)
		}
		evs = append(evs, chromeEvent{Name: name, Cat: "growth", Ph: "i",
			Ts: at + float64(i+1), Pid: t.ID, Tid: algorithmTid, S: "t",
			Args: map[string]any{"beta": g.Beta, "matched": g.Matched, "pattern": g.Pattern}})
	}
	base := at + float64(len(t.Growth)+1)
	for i, c := range t.Candidates {
		verdict := "rejected"
		if c.Matched {
			verdict = "matched"
		}
		args := map[string]any{"score": c.Score, "verdict": verdict}
		if c.Reason != "" {
			args["reason"] = c.Reason
		}
		evs = append(evs, chromeEvent{Name: fmt.Sprintf("%s: %s", verdict, c.Name),
			Cat: "candidate", Ph: "i", Ts: base + float64(i), Pid: t.ID,
			Tid: algorithmTid, S: "t", Args: args})
	}
	return evs
}

// WriteText renders one trace's full evidence in human-readable form —
// the /traces/<id> default view.
func WriteText(w io.Writer, t *Trace) {
	fmt.Fprintf(w, "trace %d: %s fault at %s (fault seq %d, detected %s",
		t.ID, t.Kind, t.OffendingAPI, t.FaultSeq, t.DetectedAt.Format("15:04:05.000"))
	if t.LatencyMs > 0 {
		fmt.Fprintf(w, ", latency %.1fms", t.LatencyMs)
	}
	fmt.Fprintf(w, ")\n")

	flags := make([]string, 0, 2)
	if t.RPCPruned {
		flags = append(flags, "rpc-pruned")
	}
	if t.CorrID != "" {
		flags = append(flags, "corr-id="+t.CorrID)
	}
	if len(flags) > 0 {
		fmt.Fprintf(w, "  matcher: %s\n", strings.Join(flags, ", "))
	}

	win := t.Window
	fmt.Fprintf(w, "  window: alpha=%d, %d events [seq %d..%d], fault at index %d (%d past / %d future)",
		win.Alpha, win.Events, win.FirstSeq, win.LastSeq, win.FaultIndex, win.PastEvents, win.FutureEvents)
	if win.Truncated {
		fmt.Fprintf(w, " [flushed early]")
	}
	fmt.Fprintln(w)

	if len(t.Errors) > 0 {
		fmt.Fprintf(w, "  errors in window (%d):\n", len(t.Errors))
		for _, e := range t.Errors {
			fmt.Fprintf(w, "    seq %-8d %-12s %-50s node=%-10s", e.Seq, e.Type, e.API, e.Node)
			if e.Status != 0 {
				fmt.Fprintf(w, " status=%d", e.Status)
			}
			if e.Error != "" {
				fmt.Fprintf(w, " %q", e.Error)
			}
			fmt.Fprintln(w)
		}
	}

	if len(t.Growth) > 0 {
		fmt.Fprintf(w, "  context-buffer growth:\n")
		for _, g := range t.Growth {
			fmt.Fprintf(w, "    beta=%-5d events[%d..%d) pattern=%-5d matched=%d %v",
				g.Beta, g.Lo, g.Hi, g.Pattern, len(g.Matched), g.Matched)
			if g.Stopped {
				fmt.Fprintf(w, "  <- STOPPED: matched set grew; kept previous step")
			}
			if g.Covered {
				fmt.Fprintf(w, "  <- window covered")
			}
			fmt.Fprintln(w)
		}
	}

	matched := 0
	for _, c := range t.Candidates {
		if c.Matched {
			matched++
		}
	}
	fmt.Fprintf(w, "  candidates (%d matched of %d):\n", matched, len(t.Candidates))
	for _, c := range t.Candidates {
		mark := "-"
		if c.Matched {
			mark = "+"
		}
		name := c.Name
		if c.Variant > 0 {
			name = fmt.Sprintf("%s#%d", c.Name, c.Variant)
		}
		fmt.Fprintf(w, "    %s %-55s score=%.2f (%d/%d mandatory",
			mark, name, c.Score, c.MandatoryHit, c.MandatoryTotal)
		if c.Omitted > 0 {
			fmt.Fprintf(w, ", %d omitted", c.Omitted)
		}
		fmt.Fprintf(w, ", fp=%d syms", c.FPLen)
		if c.Truncated {
			fmt.Fprintf(w, " truncated")
		}
		fmt.Fprintf(w, ")")
		if c.Reason != "" {
			fmt.Fprintf(w, " — %s", c.Reason)
		}
		fmt.Fprintln(w)
	}

	if len(t.Spans) > 0 {
		fmt.Fprintf(w, "  span tree (%d spans):\n", len(t.Spans))
		children := make(map[int][]int)
		var roots []int
		for i := range t.Spans {
			p := t.Spans[i].Parent
			if p < 0 {
				roots = append(roots, i)
			} else {
				children[p] = append(children[p], i)
			}
		}
		var render func(i, depth int)
		render = func(i, depth int) {
			sp := &t.Spans[i]
			fmt.Fprintf(w, "    %s[%d] %-8s %-50s node=%-10s seq %d..%d %.2fms",
				strings.Repeat("  ", depth), sp.ID, sp.Kind, sp.API, sp.Node,
				sp.StartSeq, sp.EndSeq, float64(sp.Duration)/1e6)
			if sp.Status != 0 {
				fmt.Fprintf(w, " status=%d", sp.Status)
			}
			if sp.Error != "" {
				fmt.Fprintf(w, " %q", sp.Error)
			}
			if sp.Unpaired {
				fmt.Fprintf(w, " [unpaired]")
			}
			if sp.Fault {
				fmt.Fprintf(w, "  <== FAULT")
			}
			fmt.Fprintln(w)
			for _, c := range children[i] {
				render(c, depth+1)
			}
		}
		for _, r := range roots {
			render(r, 0)
		}
	}

	if t.RCA != nil {
		fmt.Fprintf(w, "  rca evidence:\n")
		for _, n := range t.RCA.Nodes {
			up := "up"
			if !n.Up {
				up = "DOWN"
			}
			fmt.Fprintf(w, "    node %s (%s stage, %s)\n", n.Node, n.Stage, up)
			for _, d := range n.Deps {
				st := "running"
				if !d.Running {
					st = "STOPPED"
				}
				fmt.Fprintf(w, "      dep %-24s %s\n", d.Name, st)
			}
			for _, m := range n.Metrics {
				fmt.Fprintf(w, "      metric %-16s n=%-4d last=%-10.2f mean=%-10.2f",
					m.Name, m.Samples, m.Last, m.Mean)
				if m.Shifted {
					fmt.Fprintf(w, " SHIFT->%.2f", m.ShiftTo)
				}
				fmt.Fprintln(w)
			}
			for _, f := range n.Findings {
				fmt.Fprintf(w, "      finding: %s\n", f)
			}
		}
	}

	fmt.Fprintf(w, "  verdict: %d operations %v, beta=%d, precision=%.2f%%\n",
		len(t.Matched), t.Matched, t.Beta, t.Precision*100)
	for _, rc := range t.RootCauses {
		fmt.Fprintf(w, "  root cause: %s\n", rc)
	}
	if len(t.DegradedNodes) > 0 {
		fmt.Fprintf(w, "  degraded confidence: monitoring gaps on %s\n",
			strings.Join(t.DegradedNodes, ", "))
	}
}

// WriteIndex renders the one-line-per-trace store listing — the /traces
// default view.
func WriteIndex(w io.Writer, s *Store) {
	traces := s.All()
	fmt.Fprintf(w, "# %d evidence traces resident (stored %d, evicted %d, cap %d)\n",
		len(traces), s.Stored(), s.Evicted(), s.Cap())
	for _, t := range traces {
		matched := 0
		rejected := 0
		for _, c := range t.Candidates {
			if c.Matched {
				matched++
			} else {
				rejected++
			}
		}
		fmt.Fprintf(w, "trace %-6d %-12s %-50s matched=%-3d rejected=%-3d beta=%-5d precision=%.2f%%\n",
			t.ID, t.Kind, t.OffendingAPI, matched, rejected, t.Beta, t.Precision*100)
	}
}
