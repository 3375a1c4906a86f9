package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"gretel/internal/agent"
	"gretel/internal/cluster"
	"gretel/internal/faults"
	"gretel/internal/federation"
	"gretel/internal/openstack"
	"gretel/internal/tempest"
	"gretel/internal/trace"
)

// statePeriod is how often the agent reports distributed state
// (collectd samples and dependency watchers, §5.1).
const statePeriod = 5 * time.Second

// runAgent is the monitoring layer against a simulated deployment. With
// -coord, all of the deployment's streams share one partition key
// (-name), because REST/RPC pairing spans its nodes.
func runAgent(args []string) error {
	p := newProc("agent")
	fs := p.fs
	var (
		addr         = fs.String("analyzer", "127.0.0.1:6166", "analyzer event listener address")
		seed         = fs.Int64("seed", 1, "catalog and workload seed")
		parallel     = fs.Int("parallel", 100, "concurrent tests to sustain")
		nFaults      = fs.Int("faults", 4, "operational faults to inject")
		duration     = fs.Duration("duration", 5*time.Minute, "simulated workload duration")
		scenarioF    = fs.String("scenario", "none", "case-study fault to stage: none, linuxbridge, diskfull, ntp")
		perNode      = fs.Bool("per-node", false, "run one monitoring agent (and TCP stream) per deployment node, as the paper deploys Bro")
		truth        = fs.Bool("truth", true, "decorate events with ground-truth operation ids")
		telAddr      = fs.String("telemetry", "", "serve /metrics and /debug/pprof on this address (e.g. :6168; empty disables)")
		connTimeout  = fs.Duration("connect-timeout", 30*time.Second, "give up if the analyzer is unreachable for this long at startup (dialing is lazy: the agent may start first)")
		heartbeat    = fs.Duration("heartbeat", time.Second, "liveness heartbeat period per agent stream (negative disables)")
		spool        = fs.Int("spool", 4096, "frames spooled in memory per stream while the analyzer is unreachable (oldest shed beyond this)")
		drainTimeout = fs.Duration("drain-timeout", 10*time.Second, "wait this long at exit for spooled frames to flush")
		coordURL     = fs.String("coord", "", "gretel coord base URL: resolve the analyzer via GET /assign before every dial, overriding -analyzer (empty disables)")
		partKey      = fs.String("name", "agent", "federation partition key reported to -coord; one key per deployment, since event pairing spans its nodes")
	)
	err := p.parse(args, func() error {
		switch {
		case *parallel < 0:
			return fmt.Errorf("-parallel must be >= 0, got %d", *parallel)
		case *nFaults < 0:
			return fmt.Errorf("-faults must be >= 0, got %d", *nFaults)
		case *spool < 0:
			return fmt.Errorf("-spool must be >= 0, got %d (0 means 4096)", *spool)
		}
		if _, ok := scenarios[*scenarioF]; !ok {
			return fmt.Errorf("-scenario: unknown case study %q", *scenarioF)
		}
		return nil
	})
	if err != nil {
		return err
	}

	// Federated mode: the resolver runs before every dial attempt, so a
	// reassignment after analyzer death is picked up by the next redial —
	// failover is just a redial to the replacement.
	var resolve func() (string, error)
	if *coordURL != "" {
		resolve = federation.Resolver(*coordURL, *partKey)
		log.Printf("resolving analyzer via coordinator %s (partition key %q)", *coordURL, *partKey)
	}

	if err := p.start(*telAddr); err != nil {
		return err
	}
	defer p.stop()

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
	names := []string{"agent"}
	if *perNode {
		names = nil
		for _, n := range d.Fabric.Nodes() {
			names = append(names, n.Name)
		}
	}
	sent := 0
	monitors := map[string]*agent.Monitor{}
	var senders []*agent.Sender
	defer func() {
		for _, snd := range senders {
			snd.Close()
		}
	}()
	for _, name := range names {
		// Dialing is lazy: the agent may start before the analyzer and
		// spools frames until it appears (bounded by -connect-timeout).
		snd, err := agent.DialConfig(agent.SenderConfig{
			Addr: *addr, Resolve: resolve, Agent: name,
			Ring: *spool, Heartbeat: *heartbeat, DrainTimeout: *drainTimeout,
		})
		if err != nil {
			return err
		}
		senders = append(senders, snd)
		monitors[name] = agent.NewMonitor(name, func(ev trace.Event) {
			snd.Send(ev)
			sent++
		}, gt)
	}
	if *perNode {
		for name, m := range monitors {
			m.Emit = agent.OwnerPolicy(name)
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
		log.Printf("running %d per-node agents", len(monitors))
	} else {
		d.Fabric.Tap(monitors["agent"].HandlePacket)
	}

	// Bound startup ordering: all streams must reach the analyzer within
	// the shared connect timeout, then spool through any later blips.
	connectBy := time.Now().Add(*connTimeout)
	for _, snd := range senders {
		if err := snd.WaitConnected(time.Until(connectBy)); err != nil {
			return err
		}
	}
	// Every stream connected: the monitoring loop is live.
	p.ready()

	scenarios[*scenarioF](d, plan)

	// Periodic distributed-state reports on the first stream.
	stopped := false
	states := 0
	d.Sim.Every(statePeriod, func() bool { return stopped }, func() {
		senders[0].SendState(agent.CollectState(d.Fabric, d.Sim.Now()))
		states++
	})

	// Sustain the background pool.
	stopPool := tempest.SustainPool(d, cat, *parallel, rng)

	// Stagger injected faults through the run.
	for i := 0; i < *nFaults; i++ {
		test := cat.Tests[rng.Intn(len(cat.Tests))]
		at := *duration/4 + time.Duration(i)*(*duration/2)/time.Duration(max(*nFaults, 1))
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
			return fmt.Errorf("draining events: %w", err)
		}
	}
	var parseErrors uint64
	for _, m := range monitors {
		parseErrors += m.ParseErrors
	}
	log.Printf("done: %d events + %d state updates streamed in %v wall time (parse errors: %d)",
		sent, states, time.Since(start).Round(time.Millisecond), parseErrors)
	return nil
}

// scenarios stage the §7.2 case-study faults so the remote analyzer's
// root-cause analysis has something real to find.
var scenarios = map[string]func(*openstack.Deployment, *faults.Plan){
	"none": func(*openstack.Deployment, *faults.Plan) {},
	"linuxbridge": func(d *openstack.Deployment, plan *faults.Plan) {
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
	},
	"diskfull": func(d *openstack.Deployment, plan *faults.Plan) {
		faults.ExhaustDisk(d.Fabric.NodeFor(trace.SvcGlance), 0.6)
		plan.FailAPI(trace.RESTAPI(trace.SvcGlance, "PUT", "/v2/images/{id}/file"),
			413, "Request Entity Too Large: insufficient store space")
		log.Print("scenario: glance disk exhausted")
	},
	"ntp": func(d *openstack.Deployment, plan *faults.Plan) {
		faults.StopDependency(d.Fabric.NodeFor(trace.SvcCinder), "ntp")
		plan.Add(faults.Rule{
			API:         trace.RESTAPI(trace.SvcKeystone, "GET", "/v3/auth/tokens"),
			WhenDepDown: "ntp", DepOnCaller: true, StepIndex: -1,
			Outcome: openstack.Outcome{Status: 401,
				ErrText: "The request you have made requires authentication (token expired: clock skew)"},
		})
		log.Print("scenario: NTP stopped on the cinder host")
	},
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
