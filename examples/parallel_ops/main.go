// The §3.1.3 scenario: many similar operations run in parallel and one
// of them fails. Log analysis is slow; per-message stitching reports a
// chain for every operation; GRETEL's fingerprints — invoked only on the
// fault — pinpoint the offending operation among the crowd.
//
//	go run ./examples/parallel_ops
package main

import (
	"fmt"
	"math/rand"
	"time"

	"gretel/internal/core"
	"gretel/internal/experiments"
	"gretel/internal/faults"
	"gretel/internal/openstack"
	"gretel/internal/scenario"
	"gretel/internal/tempest"
	"gretel/internal/trace"
)

func main() {
	const parallel = 100
	seed := int64(3)
	cat := tempest.NewCatalog(seed)
	h := scenario.New(scenario.Options{
		Deploy: openstack.Config{
			Seed:     seed,
			ThinkMin: 50 * time.Millisecond,
			ThinkMax: 150 * time.Millisecond,
		},
		Analyzer: core.Config{Prate: parallel * 16, T: 10},
		Library:  experiments.GroundTruthLibrary(cat),
	})

	// Sustain 100 concurrent tests.
	stopPool := tempest.SustainPool(h.D, cat, parallel, rand.New(rand.NewSource(seed)))

	// After a warmup, one instance of a VM-create-family test fails at a
	// mid-operation POST.
	victim := cat.ByCategory[openstack.Compute][3]
	h.D.Sim.After(90*time.Second, func() {
		inst := h.D.Start(victim.Op, nil)
		var api trace.API
		for _, s := range victim.Op.Steps {
			if !s.Noise && s.API.Kind == trace.REST && s.API.StateChanging() {
				api = s.API // first state-change REST step
				break
			}
		}
		h.Plan.Add(faults.Rule{OpID: inst.ID, API: api, StepIndex: -1, Once: true,
			Outcome: openstack.Outcome{Status: 503, ErrText: "Service Unavailable (injected)"}})
		fmt.Printf("injected fault into one instance of %s\n", victim.Op.Name)
	})

	h.Run(4 * time.Minute)
	stopPool()
	h.Run(time.Minute)
	h.Finish()

	fmt.Printf("events processed: %d; snapshots taken: %d (detection runs only on faults)\n",
		h.Analyzer.Stats.Events, h.Analyzer.Stats.Snapshots)
	for _, rep := range h.Reports() {
		fmt.Printf("fault: %v -> %d candidate operations, matched %d (precision %.2f%%)\n",
			rep.OffendingAPI, rep.CandidatesByErrorOnly, len(rep.Candidates), rep.Precision*100)
		_, truth := h.Truth(rep)
		show := len(rep.Candidates)
		if show > 6 {
			show = 6
		}
		for _, name := range rep.Candidates[:show] {
			marker := " "
			if name == truth {
				marker = "*"
			}
			fmt.Printf("  %s %s\n", marker, name)
		}
		fmt.Printf("report delay: %v after the fault message\n", rep.ReportDelay.Round(time.Millisecond))
	}
}
