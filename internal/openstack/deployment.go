package openstack

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"gretel/internal/amqp"
	"gretel/internal/bus"
	"gretel/internal/cluster"
	"gretel/internal/metrics"
	"gretel/internal/rest"
	"gretel/internal/simclock"
	"gretel/internal/trace"
)

// InstanceState tracks an operation instance through its lifecycle.
type InstanceState uint8

// Instance lifecycle states.
const (
	StateRunning InstanceState = iota
	StateSucceeded
	StateFailed  // a step returned an error and the operation stopped
	StateAborted // the operation stopped without a wire-visible error
)

// String implements fmt.Stringer.
func (s InstanceState) String() string {
	switch s {
	case StateRunning:
		return "running"
	case StateSucceeded:
		return "succeeded"
	case StateFailed:
		return "failed"
	case StateAborted:
		return "aborted"
	default:
		return "unknown"
	}
}

// Instance is one execution of an Operation.
type Instance struct {
	ID         uint64
	CorrID     string
	Op         *Operation
	State      InstanceState
	FailedStep int
	FailedAPI  trace.API
	Started    time.Time
	Ended      time.Time

	rng  *rand.Rand
	done func(*Instance)
}

// Outcome is a fault injector's decision for one step.
type Outcome struct {
	// Status overrides the HTTP status (REST) or marks an RPC failure
	// (any nonzero value). Zero means success.
	Status int
	// ErrText is the error message placed in the response body (REST) or
	// the oslo failure field (RPC).
	ErrText string
	// Abort stops the operation after this step even on success-shaped
	// statuses (used for silent hangs). Error statuses abort by default.
	Abort bool
	// Drop suppresses the response entirely: the request appears on the
	// wire but no answer ever comes (a stuck operation, paper limitation 2).
	Drop bool
}

// Injector decides per-step outcomes. The zero decision (Outcome{}) means
// the step succeeds.
type Injector interface {
	// Outcome decides the result of one step. callerNode is the node the
	// invoking service runs on; targetNode hosts the API's owning service
	// (the RPC consumer for RPC steps).
	Outcome(inst *Instance, stepIdx int, step Step, callerNode, targetNode *cluster.Node) Outcome
}

// Config tunes deployment pacing. Zero values select defaults that put
// the 400-concurrent-op message rate near the paper's ~150 pps.
type Config struct {
	Seed int64
	// ThinkMin/ThinkMax bound the client-side delay between steps.
	ThinkMin, ThinkMax time.Duration
	// ProcMin/ProcMax bound the service-side processing time per API
	// (before load penalties); each API gets a stable base in this range.
	ProcMin, ProcMax time.Duration
	// RetryProb is the probability a GET step transiently repeats once —
	// the inadvertent invocations fingerprint learning must prune.
	RetryProb float64
	// HeartbeatPeriod spaces the background status-report RPCs. Zero
	// disables heartbeats.
	HeartbeatPeriod time.Duration
	// ComputeNodes is the number of compute hosts (paper: 3).
	ComputeNodes int
	// CorrelationIDs stamps every message of an operation with a shared
	// X-Openstack-Request-Id (REST header / oslo envelope field) — the
	// correlation-identifier rollout §5.3.1 anticipates. Off by default,
	// matching OpenStack LIBERTY.
	CorrelationIDs bool
}

func (c *Config) defaults() {
	if c.ThinkMin == 0 {
		c.ThinkMin = 2 * time.Second
	}
	if c.ThinkMax == 0 {
		c.ThinkMax = 10 * time.Second
	}
	if c.ProcMin == 0 {
		c.ProcMin = 20 * time.Millisecond
	}
	if c.ProcMax == 0 {
		c.ProcMax = 80 * time.Millisecond
	}
	if c.RetryProb == 0 {
		c.RetryProb = 0.05
	}
	if c.ComputeNodes == 0 {
		c.ComputeNodes = 3
	}
}

type opRef struct {
	id   uint64
	name string
}

// Deployment wires the simulated OpenStack installation: one node per
// component service, three compute nodes, a RabbitMQ broker node and a
// MySQL node, all connected by a tapped fabric.
type Deployment struct {
	Sim     *simclock.Sim
	Fabric  *cluster.Fabric
	Broker  *bus.Broker
	Metrics *metrics.Collector
	Config  Config

	// Injector, when non-nil, decides per-step outcomes.
	Injector Injector

	rng        *rand.Rand
	brokerNode *cluster.Node
	computes   []*cluster.Node

	nextOpID  uint64
	nextMsgID uint64
	nextUUID  uint64

	connOp map[uint64]opRef
	msgOp  map[string]opRef

	running int
	stopped bool
}

// NewDeployment builds the reference topology on a fresh simulator.
func NewDeployment(cfg Config) *Deployment {
	cfg.defaults()
	sim := simclock.New()
	d := &Deployment{
		Sim:     sim,
		Fabric:  cluster.NewFabric(sim, cfg.Seed),
		Broker:  bus.New(),
		Metrics: metrics.NewCollector(),
		Config:  cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed ^ 0x5eed)),
		connOp:  make(map[uint64]opRef),
		msgOp:   make(map[string]opRef),
	}

	ip := 10
	addNode := func(name string, svc trace.Service) *cluster.Node {
		ip++
		return d.Fabric.AddNode(name, fmt.Sprintf("10.0.0.%d", ip), svc)
	}
	for _, svc := range []trace.Service{
		trace.SvcHorizon, trace.SvcKeystone, trace.SvcNova, trace.SvcNeutron,
		trace.SvcGlance, trace.SvcCinder, trace.SvcSwift,
	} {
		addNode(svc.String()+"-node", svc)
	}
	d.brokerNode = addNode("rabbitmq-node", trace.SvcRabbitMQ)
	addNode("mysql-node", trace.SvcMySQL)
	for i := 1; i <= cfg.ComputeNodes; i++ {
		n := addNode(fmt.Sprintf("compute-%d", i), trace.SvcNovaCompute)
		n.AddDependency("neutron-plugin-linuxbridge-agent")
		n.AddDependency("libvirt")
		d.computes = append(d.computes, n)
	}

	// Topic queues per consumer service, plus reply queues per caller.
	for _, svc := range trace.Services() {
		topic := topicFor(svc)
		d.Broker.Bind(exchangeFor(svc), topic, topic)
		d.Broker.DeclareQueue(replyQueue(svc))
	}
	// Compute and agent topics are consumed on every compute node; other
	// topics on the service's own node.
	for _, n := range d.Fabric.Nodes() {
		switch n.Service {
		case trace.SvcNovaCompute, trace.SvcNeutronAgent:
			// compute nodes consume both compute and neutron-agent topics
		case trace.SvcRabbitMQ, trace.SvcMySQL:
			continue
		default:
			d.Broker.Subscribe(topicFor(n.Service), bus.Consumer{Node: n.Name})
			d.Broker.Subscribe(replyQueue(n.Service), bus.Consumer{Node: n.Name})
		}
	}
	for _, n := range d.computes {
		d.Broker.Subscribe(topicFor(trace.SvcNovaCompute), bus.Consumer{Node: n.Name})
		d.Broker.Subscribe(topicFor(trace.SvcNeutronAgent), bus.Consumer{Node: n.Name})
	}
	// nova-compute and neutron-agent replies land on the controller nodes
	// of their parent services.
	d.Broker.Subscribe(replyQueue(trace.SvcNovaCompute), bus.Consumer{Node: d.NodeFor(trace.SvcNova).Name})
	d.Broker.Subscribe(replyQueue(trace.SvcNeutronAgent), bus.Consumer{Node: d.NodeFor(trace.SvcNeutron).Name})

	if cfg.HeartbeatPeriod > 0 {
		d.startHeartbeats(cfg.HeartbeatPeriod)
	}
	return d
}

func exchangeFor(svc trace.Service) string {
	switch svc {
	case trace.SvcNovaCompute:
		return "nova"
	case trace.SvcNeutronAgent:
		return "neutron"
	default:
		return svc.String()
	}
}

func topicFor(svc trace.Service) string {
	switch svc {
	case trace.SvcNovaCompute:
		return "compute"
	case trace.SvcNeutronAgent:
		return "q-agent-notifier"
	default:
		return "topic." + svc.String()
	}
}

func replyQueue(svc trace.Service) string { return "reply_" + svc.String() }

// NodeFor returns the node hosting svc (the first compute for
// SvcNovaCompute).
func (d *Deployment) NodeFor(svc trace.Service) *cluster.Node {
	if svc == trace.SvcNovaCompute || svc == trace.SvcNeutronAgent {
		if len(d.computes) > 0 {
			return d.computes[0]
		}
		return nil
	}
	return d.Fabric.NodeFor(svc)
}

// ComputeNodes returns the compute hosts.
func (d *Deployment) ComputeNodes() []*cluster.Node { return d.computes }

// BrokerNode returns the RabbitMQ host.
func (d *Deployment) BrokerNode() *cluster.Node { return d.brokerNode }

// GroundTruth resolves the evaluation-only operation identity for an
// event, preferring the RPC message id over the connection id. It has the
// signature the agent package expects.
func (d *Deployment) GroundTruth(connID uint64, msgID string) (uint64, string) {
	if msgID != "" {
		if r, ok := d.msgOp[msgID]; ok {
			return r.id, r.name
		}
	}
	r := d.connOp[connID]
	return r.id, r.name
}

// Running reports the number of in-flight operation instances.
func (d *Deployment) Running() int { return d.running }

// StopNoise halts heartbeat generation (used at the end of experiments so
// the simulator drains).
func (d *Deployment) StopNoise() { d.stopped = true }

func (d *Deployment) uuid(r *rand.Rand) string {
	d.nextUUID++
	return fmt.Sprintf("%08x-%04x-4%03x-%04x-%012x",
		r.Uint32(), r.Uint32()&0xffff, r.Uint32()&0xfff, r.Uint32()&0xffff, d.nextUUID)
}

// concretePath fills {id} placeholders with generated UUIDs so the wire
// carries realistic URIs that the agent must re-normalize.
func (d *Deployment) concretePath(template string, r *rand.Rand) string {
	out := template
	for i := 0; i < 8; i++ {
		idx := indexOf(out, "{id}")
		if idx < 0 {
			break
		}
		out = out[:idx] + d.uuid(r) + out[idx+4:]
	}
	return out
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

// procTime returns the service-side processing time for an API on a node:
// a stable per-API base, small jitter, and a load penalty when the node's
// effective CPU crosses saturation — the mechanism behind the paper's
// §3.1.2/§7.2.2 performance-fault scenarios.
func (d *Deployment) procTime(api trace.API, node *cluster.Node, r *rand.Rand) time.Duration {
	span := d.Config.ProcMax - d.Config.ProcMin
	h := apiHash(api)
	base := d.Config.ProcMin + time.Duration(h%uint64(span+1))
	jitter := time.Duration(float64(base) * 0.1 * (r.Float64() - 0.5))
	proc := base + jitter
	if node != nil {
		load := node.Base.CPUPercent + float64(node.ActiveOps)*node.CPUPerOp + node.CPUSurge
		if load > 70 {
			factor := 1 + (load-70)/15
			if factor > 6 {
				factor = 6
			}
			proc = time.Duration(float64(proc) * factor)
		}
	}
	return proc
}

func apiHash(a trace.API) uint64 {
	var h uint64 = 14695981039346656037
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 1099511628211
		}
	}
	mix(a.Service.String())
	mix(a.Method)
	mix(a.Path)
	return h
}

func (d *Deployment) think(r *rand.Rand) time.Duration {
	span := d.Config.ThinkMax - d.Config.ThinkMin
	return d.Config.ThinkMin + time.Duration(r.Int63n(int64(span)+1))
}

// Start launches an operation instance. done (optional) runs at
// completion. Execution is driven entirely by the simulation clock; the
// caller advances it with d.Sim.Run or RunUntil.
func (d *Deployment) Start(op *Operation, done func(*Instance)) *Instance {
	d.nextOpID++
	inst := &Instance{
		ID:         d.nextOpID,
		Op:         op,
		FailedStep: -1,
		Started:    d.Sim.Now(),
		rng:        rand.New(rand.NewSource(d.Config.Seed ^ int64(d.nextOpID)*7919)),
		done:       done,
	}
	if d.Config.CorrelationIDs {
		inst.CorrID = fmt.Sprintf("req-%s", d.uuid(inst.rng))
	}
	d.running++
	d.adjustLoad(op, +1)
	d.Sim.After(time.Duration(inst.rng.Int63n(int64(time.Second))), func() {
		d.runStep(inst, 0)
	})
	return inst
}

func (d *Deployment) adjustLoad(op *Operation, delta int) {
	for _, svc := range op.Services() {
		if n := d.NodeFor(svc); n != nil {
			n.ActiveOps += delta
			if n.ActiveOps < 0 {
				n.ActiveOps = 0
			}
		}
	}
}

func (d *Deployment) complete(inst *Instance, state InstanceState) {
	if inst.State != StateRunning {
		return
	}
	inst.State = state
	inst.Ended = d.Sim.Now()
	d.running--
	d.adjustLoad(inst.Op, -1)
	if inst.done != nil {
		inst.done(inst)
	}
}

func (d *Deployment) runStep(inst *Instance, idx int) {
	if inst.State != StateRunning {
		return
	}
	if idx >= len(inst.Op.Steps) {
		d.complete(inst, StateSucceeded)
		return
	}
	step := inst.Op.Steps[idx]
	if step.Optional > 0 && inst.rng.Float64() < step.Optional {
		// Asynchronous/conditional call skipped in this execution
		// (§8 limitation 6: branched fingerprints).
		d.runStep(inst, idx+1)
		return
	}
	next := func() {
		d.Sim.After(d.think(inst.rng), func() { d.runStep(inst, idx+1) })
	}
	fail := func(api trace.API, errText string) {
		inst.FailedStep = idx
		inst.FailedAPI = api
		if api.Kind == trace.RPC {
			// RPC errors surface at the dashboard through a status-poll
			// REST call that returns the error (§5.3.1).
			d.Sim.After(d.think(inst.rng)/2, func() { d.execErrorRelay(inst, errText) })
			return
		}
		d.complete(inst, StateFailed)
	}

	if step.API.Kind == trace.REST {
		d.execREST(inst, idx, step, false, next, fail)
	} else {
		d.execRPC(inst, idx, step, next, fail)
	}
}

func (d *Deployment) outcomeFor(inst *Instance, idx int, step Step, caller, target *cluster.Node) Outcome {
	if d.Injector == nil {
		return Outcome{}
	}
	return d.Injector.Outcome(inst, idx, step, caller, target)
}

// execREST performs one HTTP exchange. When repeat is false and the step
// is a GET, a transient duplicate may follow (pruned later by learning).
func (d *Deployment) execREST(inst *Instance, idx int, step Step, repeat bool, next func(), fail func(trace.API, string)) {
	callerNode := d.NodeFor(step.Caller)
	targetNode := d.NodeFor(step.API.Service)
	if callerNode == nil || targetNode == nil || !callerNode.Up || !targetNode.Up {
		// Connection refused: nothing on the wire, operation stalls.
		d.complete(inst, StateAborted)
		return
	}
	outcome := d.outcomeFor(inst, idx, step, callerNode, targetNode)

	connID := d.Fabric.NewConnID()
	d.connOp[connID] = opRef{inst.ID, inst.Op.Name}
	cliPort := d.Fabric.EphemeralPort()
	cliAddr := cluster.Addr(callerNode, cliPort)
	srvAddr := cluster.Addr(targetNode, cluster.ServicePorts[step.API.Service])

	req := &rest.Request{Method: step.API.Method, Path: d.concretePath(step.API.Path, inst.rng)}
	req.Header.Set("Host", step.API.Service.String())
	req.Header.Set("X-Auth-Token", d.uuid(inst.rng)[:13])
	req.Header.Set("X-Service", step.Caller.String())
	if inst.CorrID != "" {
		req.Header.Set("X-Openstack-Request-Id", inst.CorrID)
	}
	req.Body = []byte(`{}`)
	reqBytes := rest.MarshalRequest(req)

	err := d.Fabric.Send(callerNode.Name, targetNode.Name, cliAddr, srvAddr, connID, reqBytes, func(cluster.Packet) {
		// Server side: process, then respond (unless dropped).
		if outcome.Drop {
			// The client eventually times the connection out.
			d.Fabric.ReleasePort(cliPort)
			return
		}
		// State-change handlers persist through MySQL (§2 "Dependencies").
		// This traffic is on the wire but filtered out by the monitoring
		// agents' relevance filter.
		if step.API.StateChanging() {
			d.sendDBQuery(targetNode, inst)
		}
		proc := d.procTime(step.API, targetNode, inst.rng)
		d.Sim.After(proc, func() {
			if !targetNode.Up || !callerNode.Up {
				d.Fabric.ReleasePort(cliPort)
				return
			}
			status := outcome.Status
			if status == 0 {
				status = defaultStatus(step.API.Method)
			}
			resp := &rest.Response{Status: status}
			resp.Header.Set("Content-Type", "application/json")
			resp.Header.Set("X-Service", step.API.Service.String())
			if inst.CorrID != "" {
				resp.Header.Set("X-Openstack-Request-Id", inst.CorrID)
			}
			resp.Body = responseBody(step.API, status, outcome.ErrText)
			respBytes := rest.MarshalResponse(resp)
			rerr := d.Fabric.Send(targetNode.Name, callerNode.Name, srvAddr, cliAddr, connID, respBytes, func(cluster.Packet) {
				d.Fabric.ReleasePort(cliPort)
				if status >= 400 {
					fail(step.API, outcome.ErrText)
					return
				}
				if outcome.Abort {
					d.complete(inst, StateAborted)
					return
				}
				if !repeat && step.API.Method == "GET" && inst.rng.Float64() < d.Config.RetryProb {
					// Transient duplicate of an idempotent call.
					d.Sim.After(d.think(inst.rng)/4, func() {
						d.execREST(inst, idx, step, true, next, fail)
					})
					return
				}
				next()
			})
			if rerr != nil {
				d.Fabric.ReleasePort(cliPort)
			}
		})
	})
	if err != nil {
		d.Fabric.ReleasePort(cliPort)
		d.complete(inst, StateAborted)
	}
}

func defaultStatus(method string) int {
	switch method {
	case "POST":
		return 201
	case "DELETE":
		return 204
	default:
		return 200
	}
}

func responseBody(api trace.API, status int, errText string) []byte {
	if status < 400 {
		return []byte(fmt.Sprintf(`{"%s": {"status": "ok"}}`, api.Service))
	}
	if errText == "" {
		errText = rest.ReasonPhrase(status)
	}
	b, _ := json.Marshal(map[string]any{
		"error": map[string]any{"code": status, "message": errText, "title": rest.ReasonPhrase(status)},
	})
	return b
}

// execRPC performs one broker-routed RPC: publish leg, deliver leg, and
// (for calls) the reply's publish and deliver legs.
func (d *Deployment) execRPC(inst *Instance, idx int, step Step, next func(), fail func(trace.API, string)) {
	pubNode := d.NodeFor(step.Caller)
	if pubNode == nil || !pubNode.Up || !d.brokerNode.Up {
		d.complete(inst, StateAborted)
		return
	}
	d.nextMsgID++
	msgID := fmt.Sprintf("msg-%010d", d.nextMsgID)
	d.msgOp[msgID] = opRef{inst.ID, inst.Op.Name}

	env := amqp.Envelope{MsgID: msgID, ReqID: inst.CorrID, Method: step.API.Method, Args: json.RawMessage(`{}`)}
	if !step.Cast {
		env.ReplyTo = replyQueue(step.Caller)
	}
	pub := &amqp.Message{
		MethodID:   amqp.BasicPublish,
		Exchange:   exchangeFor(step.API.Service),
		RoutingKey: topicFor(step.API.Service),
		Envelope:   env,
	}
	pubBytes, _ := amqp.Marshal(pub)
	pubPort := d.Fabric.EphemeralPort()
	pubAddr := cluster.Addr(pubNode, pubPort)
	brokerAddr := cluster.Addr(d.brokerNode, cluster.ServicePorts[trace.SvcRabbitMQ])
	connID := d.Fabric.NewConnID()
	d.connOp[connID] = opRef{inst.ID, inst.Op.Name}

	err := d.Fabric.Send(pubNode.Name, d.brokerNode.Name, pubAddr, brokerAddr, connID, pubBytes, func(cluster.Packet) {
		// Publish acknowledged: the one-shot publisher connection closes.
		d.Fabric.ReleasePort(pubPort)
		deliveries := d.Broker.Route(pub)
		if len(deliveries) == 0 {
			// No consumer (e.g. all compute services down): the call
			// silently times out; nothing more on the wire.
			return
		}
		for _, del := range deliveries {
			del := del
			consumerNode := d.Fabric.Node(del.Consumer.Node)
			if consumerNode == nil || !consumerNode.Up {
				continue
			}
			delBytes, _ := amqp.Marshal(del.Message)
			consAddr := cluster.Addr(consumerNode, cluster.ServicePorts[step.API.Service])
			dConnID := d.Fabric.NewConnID()
			d.connOp[dConnID] = opRef{inst.ID, inst.Op.Name}
			d.Fabric.Send(d.brokerNode.Name, consumerNode.Name, brokerAddr, consAddr, dConnID, delBytes, func(cluster.Packet) {
				outcome := d.outcomeFor(inst, idx, step, pubNode, consumerNode)
				proc := d.procTime(step.API, consumerNode, inst.rng)
				d.Sim.After(proc, func() {
					if step.Cast {
						return
					}
					if outcome.Drop {
						return
					}
					d.sendRPCReply(inst, step, msgID, consumerNode, outcome, next, fail)
				})
			})
		}
	})
	if err != nil {
		d.Fabric.ReleasePort(pubPort)
		d.complete(inst, StateAborted)
		return
	}
	if step.Cast {
		// Fire and forget: the caller proceeds without waiting.
		next()
	}
}

func (d *Deployment) sendRPCReply(inst *Instance, step Step, msgID string, consumerNode *cluster.Node, outcome Outcome, next func(), fail func(trace.API, string)) {
	reply := &amqp.Message{
		MethodID:   amqp.BasicPublish,
		Exchange:   "",
		RoutingKey: replyQueue(step.Caller),
		Envelope:   amqp.Envelope{MsgID: msgID, ReqID: inst.CorrID, Result: json.RawMessage(`{}`)},
	}
	if outcome.Status != 0 {
		reply.Envelope.Result = nil
		reply.Envelope.Failure = outcome.ErrText
		if reply.Envelope.Failure == "" {
			reply.Envelope.Failure = "RemoteError: unexpected failure"
		}
	}
	replyBytes, _ := amqp.Marshal(reply)
	consPort := d.Fabric.EphemeralPort()
	consAddr := cluster.Addr(consumerNode, consPort)
	brokerAddr := cluster.Addr(d.brokerNode, cluster.ServicePorts[trace.SvcRabbitMQ])
	rConnID := d.Fabric.NewConnID()
	d.connOp[rConnID] = opRef{inst.ID, inst.Op.Name}
	rerr := d.Fabric.Send(consumerNode.Name, d.brokerNode.Name, consAddr, brokerAddr, rConnID, replyBytes, func(cluster.Packet) {
		d.Fabric.ReleasePort(consPort)
		dels := d.Broker.Route(reply)
		for _, del := range dels {
			del := del
			callerNode := d.Fabric.Node(del.Consumer.Node)
			if callerNode == nil || !callerNode.Up {
				continue
			}
			delBytes, _ := amqp.Marshal(del.Message)
			dConnID := d.Fabric.NewConnID()
			d.connOp[dConnID] = opRef{inst.ID, inst.Op.Name}
			delPort := d.Fabric.EphemeralPort()
			derr := d.Fabric.Send(d.brokerNode.Name, callerNode.Name, brokerAddr, cluster.Addr(callerNode, delPort), dConnID, delBytes, func(cluster.Packet) {
				d.Fabric.ReleasePort(delPort)
				if outcome.Status != 0 {
					fail(step.API, reply.Envelope.Failure)
					return
				}
				if outcome.Abort {
					d.complete(inst, StateAborted)
					return
				}
				next()
			})
			if derr != nil {
				d.Fabric.ReleasePort(delPort)
			}
		}
	})
	if rerr != nil {
		d.Fabric.ReleasePort(consPort)
	}
}

// sendDBQuery emits a best-effort opaque database exchange from a service
// node to the MySQL node — wire realism for the §2 data dependency. The
// payload is deliberately not an OpenStack protocol; monitoring agents
// must filter it out rather than choke on it.
func (d *Deployment) sendDBQuery(from *cluster.Node, inst *Instance) {
	mysql := d.Fabric.NodeFor(trace.SvcMySQL)
	if mysql == nil || !mysql.Up || !from.Up {
		return
	}
	// A MySQL-protocol-shaped packet: 3-byte length, sequence id, COM_QUERY.
	query := []byte("UPDATE instances SET state=? WHERE id=?")
	payload := make([]byte, 0, 5+len(query))
	payload = append(payload, byte(len(query)+1), 0, 0, 0, 0x03)
	payload = append(payload, query...)
	connID := d.Fabric.NewConnID()
	srcPort := d.Fabric.EphemeralPort()
	src := cluster.Addr(from, srcPort)
	dst := cluster.Addr(mysql, cluster.ServicePorts[trace.SvcMySQL])
	if err := d.Fabric.Send(from.Name, mysql.Name, src, dst, connID, payload, func(cluster.Packet) {
		d.Fabric.ReleasePort(srcPort)
	}); err != nil {
		d.Fabric.ReleasePort(srcPort)
	}
}

// execErrorRelay performs the status-poll REST exchange that surfaces an
// RPC failure at the dashboard: Horizon GETs the category's primary
// resource and receives the error in the response. The operation
// completes as failed once the error response is delivered.
func (d *Deployment) execErrorRelay(inst *Instance, errText string) {
	api := RelayAPI(inst.Op.Category)
	callerNode := d.NodeFor(trace.SvcHorizon)
	targetNode := d.NodeFor(api.Service)
	if callerNode == nil || targetNode == nil || !callerNode.Up || !targetNode.Up {
		d.complete(inst, StateFailed)
		return
	}
	connID := d.Fabric.NewConnID()
	d.connOp[connID] = opRef{inst.ID, inst.Op.Name}
	cliPort := d.Fabric.EphemeralPort()
	cliAddr := cluster.Addr(callerNode, cliPort)
	srvAddr := cluster.Addr(targetNode, cluster.ServicePorts[api.Service])

	req := &rest.Request{Method: api.Method, Path: d.concretePath(api.Path, inst.rng), Body: []byte(`{}`)}
	req.Header.Set("Host", api.Service.String())
	req.Header.Set("X-Service", trace.SvcHorizon.String())
	if inst.CorrID != "" {
		req.Header.Set("X-Openstack-Request-Id", inst.CorrID)
	}
	err := d.Fabric.Send(callerNode.Name, targetNode.Name, cliAddr, srvAddr, connID, rest.MarshalRequest(req), func(cluster.Packet) {
		proc := d.procTime(api, targetNode, inst.rng)
		d.Sim.After(proc, func() {
			if !targetNode.Up || !callerNode.Up {
				d.Fabric.ReleasePort(cliPort)
				d.complete(inst, StateFailed)
				return
			}
			resp := &rest.Response{Status: 500}
			resp.Header.Set("Content-Type", "application/json")
			if inst.CorrID != "" {
				resp.Header.Set("X-Openstack-Request-Id", inst.CorrID)
			}
			resp.Body = responseBody(api, 500, errText)
			rerr := d.Fabric.Send(targetNode.Name, callerNode.Name, srvAddr, cliAddr, connID, rest.MarshalResponse(resp), func(cluster.Packet) {
				d.Fabric.ReleasePort(cliPort)
				d.complete(inst, StateFailed)
			})
			if rerr != nil {
				d.Fabric.ReleasePort(cliPort)
			}
		})
	})
	if err != nil {
		d.Fabric.ReleasePort(cliPort)
		d.complete(inst, StateFailed)
	}
}

// startHeartbeats schedules the periodic status RPCs: nova-compute
// report_state from each compute node, neutron agent state_report, and
// cinder capability reports. All are casts routed through the broker.
func (d *Deployment) startHeartbeats(period time.Duration) {
	offsets := 0
	hb := func(from *cluster.Node, api trace.API, exch, topic string) {
		offsets++
		startDelay := time.Duration(offsets) * period / 10
		d.Sim.After(startDelay, func() {
			d.Sim.Every(period, func() bool { return d.stopped }, func() {
				if !from.Up || !d.brokerNode.Up {
					return
				}
				d.nextMsgID++
				msgID := fmt.Sprintf("hb-%010d", d.nextMsgID)
				m := &amqp.Message{
					MethodID:   amqp.BasicPublish,
					Exchange:   exch,
					RoutingKey: topic,
					Envelope:   amqp.Envelope{MsgID: msgID, Method: api.Method, Args: json.RawMessage(`{"status":"alive"}`)},
				}
				raw, _ := amqp.Marshal(m)
				connID := d.Fabric.NewConnID()
				srcPort := d.Fabric.EphemeralPort()
				src := cluster.Addr(from, srcPort)
				dst := cluster.Addr(d.brokerNode, cluster.ServicePorts[trace.SvcRabbitMQ])
				herr := d.Fabric.Send(from.Name, d.brokerNode.Name, src, dst, connID, raw, func(cluster.Packet) {
					d.Fabric.ReleasePort(srcPort)
					// Heartbeats are consumed by the parent controller.
					var target *cluster.Node
					switch api.Service {
					case trace.SvcNova:
						target = d.Fabric.NodeFor(trace.SvcNova)
					case trace.SvcNeutron:
						target = d.Fabric.NodeFor(trace.SvcNeutron)
					default:
						target = d.Fabric.NodeFor(trace.SvcCinder)
					}
					if target == nil || !target.Up {
						return
					}
					dm := *m
					dm.MethodID = amqp.BasicDeliver
					delBytes, _ := amqp.Marshal(&dm)
					dConnID := d.Fabric.NewConnID()
					d.Fabric.Send(d.brokerNode.Name, target.Name, dst, cluster.Addr(target, cluster.ServicePorts[target.Service]), dConnID, delBytes, nil)
				})
				if herr != nil {
					d.Fabric.ReleasePort(srcPort)
				}
			})
		})
	}
	for _, n := range d.computes {
		hb(n, HeartbeatAPIs[0], "nova", "topic.nova")
		hb(n, HeartbeatAPIs[1], "neutron", "topic.neutron")
	}
	if c := d.Fabric.NodeFor(trace.SvcCinder); c != nil {
		hb(c, HeartbeatAPIs[2], "cinder", "topic.cinder")
	}
}
