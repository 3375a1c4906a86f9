// Command gretel-agent runs the distributed monitoring layer against a
// simulated OpenStack deployment and streams the parsed REST/RPC events
// to a gretel analyzer over TCP — the two-process demo of the paper's
// Bro-agents → analyzer architecture.
//
// The agent drives a workload (concurrent Tempest-analogue tests) on the
// simulated deployment, taps every wire message, parses it exactly as the
// in-process agents do, and forwards the events. Faults can be injected
// to exercise the analyzer's fault localization.
//
// Usage:
//
//	gretel-agent -analyzer 127.0.0.1:6166 -parallel 100 -faults 4 -duration 5m
//	gretel-agent -analyzer 127.0.0.1:6166 -telemetry :6168   # live agent metrics
//	gretel-agent -coord http://127.0.0.1:6170 -name site-a   # federated fleet
//
// With -telemetry, monitoring-layer counters (packets seen/parsed,
// events emitted per service, transport frames/drops) are served at
// /metrics with pprof at /debug/pprof/.
//
// With -coord, the analyzer address is resolved from a gretel-coord
// coordinator (GET /assign) before every dial attempt instead of taken
// from -analyzer. All of this deployment's streams share one partition
// key (-name), because REST/RPC pairing spans nodes: the whole
// deployment must land on one analyzer. When that analyzer dies the
// coordinator reassigns the key, the next redial resolves to the
// replacement, and the spool ring replays everything it retained there.
package main

import (
	"flag"
	"log"
	"math/rand"
	"time"

	"gretel/internal/agent"
	"gretel/internal/cluster"
	"gretel/internal/faults"
	"gretel/internal/federation"
	"gretel/internal/openstack"
	"gretel/internal/telemetry"
	"gretel/internal/telemetry/export"
	"gretel/internal/tempest"
	"gretel/internal/trace"
)

func main() {
	var (
		addr         = flag.String("analyzer", "127.0.0.1:6166", "analyzer event listener address")
		seed         = flag.Int64("seed", 1, "catalog and workload seed")
		parallel     = flag.Int("parallel", 100, "concurrent tests to sustain")
		nFaults      = flag.Int("faults", 4, "operational faults to inject")
		duration     = flag.Duration("duration", 5*time.Minute, "simulated workload duration")
		statePeriod  = flag.Duration("state-period", 5*time.Second, "distributed-state reporting period (0 disables)")
		scenarioF    = flag.String("scenario", "none", "case-study fault to stage: none, linuxbridge, diskfull, ntp")
		perNode      = flag.Bool("per-node", false, "run one monitoring agent (and TCP stream) per deployment node, as the paper deploys Bro")
		truth        = flag.Bool("truth", true, "decorate events with ground-truth operation ids")
		telAddr      = flag.String("telemetry", "", "serve /metrics and /debug/pprof on this address (e.g. :6168; empty disables)")
		connTimeout  = flag.Duration("connect-timeout", 30*time.Second, "give up if the analyzer is unreachable for this long at startup (dialing is lazy: the agent may start first)")
		heartbeat    = flag.Duration("heartbeat", time.Second, "liveness heartbeat period per agent stream (negative disables)")
		spool        = flag.Int("spool", 4096, "frames spooled in memory per stream while the analyzer is unreachable (oldest shed beyond this)")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Second, "wait this long at exit for spooled frames to flush")
		exportURL    = flag.String("telemetry-export", "", "ship per-interval telemetry to this gretel-tsdb base URL (empty disables)")
		exportIvl    = flag.Duration("export-interval", time.Second, "sampling interval for -telemetry-export")
		exportBuf    = flag.Int("export-buffer", 10000, "points buffered while the TSDB is unreachable (oldest shed beyond this, counted)")
		coordURL     = flag.String("coord", "", "gretel-coord base URL: resolve the analyzer via GET /assign before every dial, overriding -analyzer (empty disables)")
		partKey      = flag.String("name", "", "federation partition key reported to -coord (default \"agent\"); one key per deployment, since event pairing spans its nodes")
	)
	flag.Parse()

	// Federated mode: ask the coordinator which analyzer owns this
	// deployment. The resolver runs before every dial attempt, so a
	// reassignment after analyzer death is picked up by the next redial —
	// failover is just a redial to the replacement.
	var resolve func() (string, error)
	if *coordURL != "" {
		key := *partKey
		if key == "" {
			key = "agent"
		}
		resolve = federation.Resolver(*coordURL, key)
		log.Printf("resolving analyzer via coordinator %s (partition key %q)", *coordURL, key)
	}

	if *telAddr != "" {
		bound, _, err := telemetry.Serve(*telAddr, nil)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("telemetry on http://%s/metrics (pprof at /debug/pprof/)", bound)
	}

	if *exportURL != "" {
		exporter, err := export.Start(export.Options{
			URL: *exportURL, Interval: *exportIvl, Buffer: *exportBuf, Proc: "gretel-agent",
		})
		if err != nil {
			log.Fatal(err)
		}
		defer func() {
			exporter.Drain(5 * time.Second)
			exporter.Close()
			es := exporter.Stats()
			log.Printf("export: sampled %d delivered %d shed %d", es.Sampled, es.Delivered, es.Shed)
		}()
		log.Printf("exporting telemetry to %s every %v", *exportURL, *exportIvl)
	}

	cat := tempest.NewCatalog(*seed)
	rng := rand.New(rand.NewSource(*seed ^ 0xa9e47))
	d := openstack.NewDeployment(openstack.Config{
		Seed:            *seed,
		HeartbeatPeriod: 10 * time.Second,
		ThinkMin:        50 * time.Millisecond,
		ThinkMax:        150 * time.Millisecond,
	})
	plan := faults.NewPlan()
	d.Injector = plan

	var gt agent.GroundTruth
	if *truth {
		gt = d.GroundTruth
	}

	// Monitoring layer: one agent per node (each with its own TCP stream
	// to the analyzer, per-stream ordering preserved as in §5.2), or a
	// single merged agent. Each message is reported by the agent on its
	// destination node, so it is counted exactly once.
	sent := 0
	var parseErrors func() uint64
	var senders []*agent.Sender
	newSender := func(name string) *agent.Sender {
		// Dialing is lazy: the agent may start before the analyzer and
		// spools frames until it appears (bounded by -connect-timeout).
		snd, err := agent.DialConfig(agent.SenderConfig{
			Addr: *addr, Resolve: resolve, Agent: name,
			Ring: *spool, Heartbeat: *heartbeat, DrainTimeout: *drainTimeout,
		})
		if err != nil {
			log.Fatal(err)
		}
		senders = append(senders, snd)
		return snd
	}
	var stateSender *agent.Sender
	if *perNode {
		monitors := map[string]*agent.Monitor{}
		for _, n := range d.Fabric.Nodes() {
			snd := newSender(n.Name)
			m := agent.NewMonitor(n.Name, func(ev trace.Event) {
				snd.Send(ev)
				sent++
			}, gt)
			m.Emit = agent.OwnerPolicy(n.Name)
			monitors[n.Name] = m
		}
		d.Fabric.Tap(func(pkt cluster.Packet) {
			// Both endpoints' agents see the packet (each taps its own
			// interface); the owner policy makes exactly one report it.
			if m := monitors[pkt.SrcNode]; m != nil {
				m.HandlePacket(pkt)
			}
			if m := monitors[pkt.DstNode]; m != nil && pkt.DstNode != pkt.SrcNode {
				m.HandlePacket(pkt)
			}
		})
		parseErrors = func() uint64 {
			var total uint64
			for _, m := range monitors {
				total += m.ParseErrors
			}
			return total
		}
		stateSender = senders[0]
		log.Printf("running %d per-node agents", len(monitors))
	} else {
		snd := newSender("agent")
		mon := agent.NewMonitor("agent", func(ev trace.Event) {
			snd.Send(ev)
			sent++
		}, gt)
		d.Fabric.Tap(mon.HandlePacket)
		parseErrors = func() uint64 { return mon.ParseErrors }
		stateSender = snd
	}
	defer func() {
		for _, snd := range senders {
			snd.Close()
		}
	}()

	// Bound startup ordering: all streams must reach the analyzer within
	// the shared connect timeout, then spool through any later blips.
	connectBy := time.Now().Add(*connTimeout)
	for _, snd := range senders {
		if err := snd.WaitConnected(time.Until(connectBy)); err != nil {
			log.Fatal(err)
		}
	}

	// Every stream connected: the monitoring loop is live, /healthz on
	// the telemetry address answers 200 from here on.
	telemetry.SetReady(true)
	defer telemetry.SetReady(false)

	stageScenario(*scenarioF, d, plan)

	// Periodic distributed-state reports (collectd + watchers, §5.1).
	stopped := false
	states := 0
	if *statePeriod > 0 {
		d.Sim.Every(*statePeriod, func() bool { return stopped }, func() {
			stateSender.SendState(agent.CollectState(d.Fabric, d.Sim.Now()))
			states++
		})
	}

	// Sustain the background pool.
	stopPool := tempest.SustainPool(d, cat, *parallel, rng)

	// Stagger injected faults through the run.
	for i := 0; i < *nFaults; i++ {
		i := i
		test := cat.Tests[rng.Intn(len(cat.Tests))]
		at := *duration/4 + time.Duration(i)*(*duration/2)/time.Duration(maxInt(*nFaults, 1))
		d.Sim.After(at, func() {
			inst := d.Start(test.Op, nil)
			if idx := faultStep(test.Op); idx >= 0 {
				plan.Add(faults.Rule{
					OpID: inst.ID, StepIndex: idx, Once: true,
					Outcome: openstack.Outcome{Status: 500,
						ErrText: "Internal Server Error: injected fault"},
				})
				log.Printf("scheduled fault %d in %s", i+1, test.Op.Name)
			}
		})
	}

	log.Printf("driving %d parallel tests for %v (simulated)", *parallel, *duration)
	start := time.Now()
	d.Sim.RunUntil(d.Sim.Now().Add(*duration))
	stopped = true
	stopPool()
	d.StopNoise()
	d.Sim.Run()
	for _, snd := range senders {
		if err := snd.Drain(*drainTimeout); err != nil {
			log.Fatalf("draining events: %v", err)
		}
	}
	log.Printf("done: %d events + %d state updates streamed in %v wall time (parse errors: %d)",
		sent, states, time.Since(start).Round(time.Millisecond), parseErrors())
}

// stageScenario installs one of the §7.2 case-study faults so the remote
// analyzer's root-cause analysis has something real to find.
func stageScenario(name string, d *openstack.Deployment, plan *faults.Plan) {
	switch name {
	case "none", "":
		return
	case "linuxbridge":
		for _, n := range d.ComputeNodes() {
			faults.StopDependency(n, "neutron-plugin-linuxbridge-agent")
		}
		plan.Add(faults.Rule{
			Service: trace.SvcNovaCompute, WhenDepDown: "neutron-plugin-linuxbridge-agent",
			StepIndex: -1,
			Outcome: openstack.Outcome{Status: 1,
				ErrText: "NoValidHost: No valid host was found. There are not enough hosts available."},
		})
		log.Print("scenario: linuxbridge agent crashed on all compute hosts")
	case "diskfull":
		faults.ExhaustDisk(d.Fabric.NodeFor(trace.SvcGlance), 0.6)
		plan.FailAPI(trace.RESTAPI(trace.SvcGlance, "PUT", "/v2/images/{id}/file"),
			413, "Request Entity Too Large: insufficient store space")
		log.Print("scenario: glance disk exhausted")
	case "ntp":
		faults.StopDependency(d.Fabric.NodeFor(trace.SvcCinder), "ntp")
		plan.Add(faults.Rule{
			API:         trace.RESTAPI(trace.SvcKeystone, "GET", "/v3/auth/tokens"),
			WhenDepDown: "ntp", DepOnCaller: true, StepIndex: -1,
			Outcome: openstack.Outcome{Status: 401,
				ErrText: "The request you have made requires authentication (token expired: clock skew)"},
		})
		log.Print("scenario: NTP stopped on the cinder host")
	default:
		log.Fatalf("unknown scenario %q", name)
	}
}

// faultStep picks a mid-operation state-change REST step to fail.
func faultStep(op *openstack.Operation) int {
	var idxs []int
	for i, s := range op.Steps {
		if !s.Noise && s.API.Kind == trace.REST && s.API.StateChanging() {
			idxs = append(idxs, i)
		}
	}
	if len(idxs) == 0 {
		return -1
	}
	return idxs[len(idxs)*3/5]
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
