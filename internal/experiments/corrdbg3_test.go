package experiments

import (
	"fmt"
	"testing"
	"time"

	"gretel/internal/agent"
	"gretel/internal/core"
	"gretel/internal/faults"
	"gretel/internal/fingerprint"
	"gretel/internal/openstack"
	"gretel/internal/tempest"
	"gretel/internal/trace"
)

func TestCorrDebug3(t *testing.T) {
	cat := tempest.NewCatalog(21)
	lib := GroundTruthLibrary(cat)
	ft := pickFaultTestsDeterministic(cat, 4)[3] // compute-vm-create-0003
	api, _ := chooseFaultAPI(ft.Op)
	fmt.Println("test:", ft.Op.Name, "fault api:", api)

	d := openstack.NewDeployment(openstack.Config{Seed: 77, CorrelationIDs: true,
		HeartbeatPeriod: 10 * time.Second,
		ThinkMin:        50 * time.Millisecond, ThinkMax: 150 * time.Millisecond})
	plan := faults.NewPlan()
	d.Injector = plan
	a := core.New(lib, core.Config{Prate: 1600, T: 10, UseCorrelationIDs: true})
	var all []trace.Event
	var inst *openstack.Instance
	mon := agent.NewMonitor("x", func(ev trace.Event) {
		all = append(all, ev)
		a.Ingest(ev)
	}, d.GroundTruth)
	d.Fabric.Tap(mon.HandlePacket)

	// light background
	for i := 0; i < 100; i++ {
		d.Start(cat.Tests[(i*7)%len(cat.Tests)].Op, nil)
	}
	d.Sim.After(30*time.Second, func() {
		inst = d.Start(ft.Op, nil)
		plan.Add(faults.Rule{OpID: inst.ID, API: api, StepIndex: -1, Once: true,
			Outcome: openstack.Outcome{Status: 500, ErrText: "injected"}})
	})
	d.Sim.RunUntil(d.Sim.Now().Add(3 * time.Minute))
	d.StopNoise()
	d.Sim.Run()
	a.Flush()

	fmt.Println("inst state:", inst.State, "failed api:", inst.FailedAPI, "corr:", inst.CorrID)
	for _, rep := range a.Reports() {
		if rep.TruthOp != ft.Op.Name {
			continue
		}
		fmt.Println("matched:", len(rep.Candidates), "hit:", rep.Hit(), "offending:", rep.OffendingAPI)
		// rebuild pattern: own corr events, requests, non-RPC, known
		var pat []rune
		for _, ev := range all {
			if ev.CorrID == inst.CorrID && ev.Type.Request() && ev.API.Kind != trace.RPC {
				if r, ok := lib.Table.Lookup(ev.API); ok {
					pat = append(pat, r)
				}
			}
		}
		offSym, okk := lib.Table.Lookup(rep.OffendingAPI)
		fmt.Println("offSym known:", okk, "pattern len (full run):", len(pat))
		// The truth operation's program as detect matches it: truncated at
		// the offending API, RPC-pruned.
		cands := lib.Candidates(offSym)
		truth := -1
		for i := 0; i < cands.Len(); i++ {
			if cands.Name(i) == ft.Op.Name {
				truth = i
				break
			}
		}
		if truth < 0 {
			fmt.Println("NO CANDIDATE — offending symbol not in truth fp!")
			continue
		}
		lean := cands.Program(truth, true, true)
		exp := lean.ExplainCorrelated(fingerprint.NewIndex(pat), lib.Table)
		fmt.Println("lean len:", lean.Len(), "MatchCorrelated(full own pattern):", exp.Matched)
		fmt.Printf("coverage: %d/%d = %.2f %s\n", exp.Satisfied, len(pat), exp.Coverage, exp.Reason)
	}
}
