// Package cluster models the physical deployment substrate: nodes with
// resource state and software dependencies, and a network fabric that
// moves wire bytes between nodes with per-link latency and passive taps.
//
// GRETEL's model (§4) treats OpenStack as a closed system whose faults are
// caused by external factors — software dependencies (NTP, RabbitMQ,
// MySQL, agents/plugins, libvirt) and resource dependencies (CPU, memory,
// disk, network). This package owns exactly that state, so fault injectors
// perturb it here and root-cause analysis reads it back through the
// metrics/watcher layers.
package cluster

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"gretel/internal/simclock"
	"gretel/internal/trace"
)

// Well-known service ports, matching a stock OpenStack deployment.
var ServicePorts = map[trace.Service]int{
	trace.SvcHorizon:      80,
	trace.SvcKeystone:     5000,
	trace.SvcNova:         8774,
	trace.SvcNovaCompute:  8775,
	trace.SvcNeutron:      9696,
	trace.SvcNeutronAgent: 9697,
	trace.SvcGlance:       9292,
	trace.SvcCinder:       8776,
	trace.SvcSwift:        8080,
	trace.SvcRabbitMQ:     5672,
	trace.SvcMySQL:        3306,
}

// Dependency is one third-party software dependency on a node, e.g. the
// NTP agent or the neutron-plugin-linuxbridge-agent. Watchers report
// Running; fault injectors flip it.
type Dependency struct {
	Name    string
	Running bool
}

// Resources is a snapshot of a node's resource state, in the units the
// paper's collectd agents reported.
type Resources struct {
	CPUPercent  float64 // total CPU utilization, 0..100
	MemUsedMB   float64
	MemTotalMB  float64
	DiskFreeGB  float64
	DiskTotalGB float64
	NetMbps     float64 // current NIC throughput
	DiskIOPS    float64
}

// Node is one server in the deployment. The reference deployment installs
// each OpenStack component on its own node (§5.4 "Improving precision").
type Node struct {
	Name string
	IP   string
	// Service is fixed once AddNode registers the node: NodeFor's index
	// is kept then.
	Service trace.Service
	Up      bool

	// Baseline resource profile; live values derive from it plus load.
	Base Resources

	// ActiveOps counts operations currently executing on this node; the
	// CPU model charges CPUPerOp percent per active operation.
	ActiveOps int
	CPUPerOp  float64

	// CPUSurge and NetSurge are additive perturbations installed by fault
	// injectors (e.g. the Fig 6 Neutron CPU surge).
	CPUSurge float64
	NetSurge float64

	deps map[string]*Dependency
	rng  *rand.Rand
}

// AddDependency registers a software dependency in the running state.
func (n *Node) AddDependency(name string) {
	n.deps[name] = &Dependency{Name: name, Running: true}
}

// Dependency returns the named dependency, or nil.
func (n *Node) Dependency(name string) *Dependency { return n.deps[name] }

// Dependencies returns all dependencies sorted by name.
func (n *Node) Dependencies() []*Dependency {
	names := make([]string, 0, len(n.deps))
	for k := range n.deps {
		names = append(names, k)
	}
	sort.Strings(names)
	out := make([]*Dependency, len(names))
	for i, k := range names {
		out[i] = n.deps[k]
	}
	return out
}

// SetDependency flips a dependency's running state, creating it if needed.
func (n *Node) SetDependency(name string, running bool) {
	d, ok := n.deps[name]
	if !ok {
		d = &Dependency{Name: name}
		n.deps[name] = d
	}
	d.Running = running
}

// Sample returns the node's current resource reading: baseline plus
// load-proportional CPU, surges, and small deterministic jitter.
func (n *Node) Sample() Resources {
	r := n.Base
	jitter := func(scale float64) float64 { return (n.rng.Float64() - 0.5) * scale }
	r.CPUPercent += float64(n.ActiveOps)*n.CPUPerOp + n.CPUSurge + jitter(2.0)
	if r.CPUPercent > 100 {
		r.CPUPercent = 100
	}
	if r.CPUPercent < 0 {
		r.CPUPercent = 0
	}
	r.MemUsedMB += float64(n.ActiveOps)*8 + jitter(16)
	if r.MemUsedMB > r.MemTotalMB {
		r.MemUsedMB = r.MemTotalMB
	}
	r.NetMbps += float64(n.ActiveOps)*0.4 + n.NetSurge + jitter(0.5)
	if r.NetMbps < 0 {
		r.NetMbps = 0
	}
	r.DiskIOPS += float64(n.ActiveOps)*5 + jitter(10)
	if r.DiskIOPS < 0 {
		r.DiskIOPS = 0
	}
	return r
}

// Packet is one tapped transmission: wire bytes plus the connection
// metadata a passive monitor can see.
type Packet struct {
	Time             time.Time
	SrcNode, DstNode string
	SrcAddr, DstAddr string
	ConnID           uint64
	Payload          []byte
}

// TapFn receives a copy of every packet the fabric delivers. Taps observe;
// they must not mutate the payload.
type TapFn func(Packet)

// Fabric is the simulated network connecting the nodes. Transmission
// takes a base latency plus any injected per-node latency (the tc
// analogue from §7.3), after which the payload is delivered to the
// destination callback and mirrored to every tap.
type Fabric struct {
	Sim   *simclock.Sim
	nodes map[string]*Node
	// first maps each service to its node of least name: what NodeFor
	// answers, kept as nodes register instead of sorted per call.
	first map[trace.Service]*Node
	taps  []TapFn
	rng   *rand.Rand

	// BaseLatency is the one-way delivery time for packets; small jitter
	// is added per packet.
	BaseLatency time.Duration

	// extraLatency maps node name -> injected one-way latency applied to
	// packets to or from that node.
	extraLatency map[string]time.Duration

	nextConn  uint64
	nextPort  int
	usedPorts map[int]bool

	// PortReuse counts EphemeralPort calls that had to hand out an
	// in-use port because the whole range was live — callers leaking
	// ports, or a soak with >28k concurrent connections.
	PortReuse uint64

	// Delivered counts packets handed to destinations; Bytes sums their
	// payload sizes.
	Delivered uint64
	Bytes     uint64
}

// NewFabric creates a fabric on the given simulator with a seeded RNG.
func NewFabric(sim *simclock.Sim, seed int64) *Fabric {
	return &Fabric{
		Sim:          sim,
		nodes:        make(map[string]*Node),
		first:        make(map[trace.Service]*Node),
		rng:          rand.New(rand.NewSource(seed)),
		BaseLatency:  300 * time.Microsecond,
		extraLatency: make(map[string]time.Duration),
		nextPort:     ephemeralMin,
		usedPorts:    make(map[int]bool),
	}
}

// AddNode creates and registers a node hosting the given service.
func (f *Fabric) AddNode(name, ip string, svc trace.Service) *Node {
	n := &Node{
		Name:    name,
		IP:      ip,
		Service: svc,
		Up:      true,
		Base: Resources{
			CPUPercent:  3 + f.rng.Float64()*2,
			MemUsedMB:   2048,
			MemTotalMB:  128 * 1024, // the paper's x3650 M3 servers: 128 GB
			DiskFreeGB:  800,
			DiskTotalGB: 1000,
			NetMbps:     1,
			DiskIOPS:    20,
		},
		CPUPerOp: 0.15,
		deps:     make(map[string]*Dependency),
		rng:      rand.New(rand.NewSource(seedFor(name))),
	}
	// Dependencies standard across all nodes (§5): NTP sync plus
	// reachability to MySQL and RabbitMQ.
	n.AddDependency("ntp")
	n.AddDependency("mysql-conn")
	n.AddDependency("rabbitmq-conn")
	_, replaced := f.nodes[name]
	f.nodes[name] = n
	if replaced { // rare: re-derive the index without the old node
		clear(f.first)
		for _, m := range f.nodes {
			f.index(m)
		}
	} else {
		f.index(n)
	}
	return n
}

// index records n in first if it precedes its service's current node.
func (f *Fabric) index(n *Node) {
	if cur := f.first[n.Service]; cur == nil || n.Name < cur.Name {
		f.first[n.Service] = n
	}
}

func seedFor(name string) int64 {
	var h int64 = 1469598103934665603
	for _, c := range name {
		h ^= int64(c)
		h *= 1099511628211
	}
	return h
}

// Node returns the named node, or nil.
func (f *Fabric) Node(name string) *Node { return f.nodes[name] }

// Nodes returns all nodes sorted by name.
func (f *Fabric) Nodes() []*Node {
	names := make([]string, 0, len(f.nodes))
	for k := range f.nodes {
		names = append(names, k)
	}
	sort.Strings(names)
	out := make([]*Node, len(names))
	for i, k := range names {
		out[i] = f.nodes[k]
	}
	return out
}

// NodeFor returns the node hosting the given service — of several, the
// first by name — or nil. The reference deployment has exactly one node
// per service.
func (f *Fabric) NodeFor(svc trace.Service) *Node { return f.first[svc] }

// Tap registers a passive monitor receiving a copy of every delivered
// packet.
func (f *Fabric) Tap(fn TapFn) { f.taps = append(f.taps, fn) }

// InjectLatency adds one-way latency to every packet to or from the node
// (the tc analogue). A zero duration removes the injection.
func (f *Fabric) InjectLatency(node string, d time.Duration) {
	if d == 0 {
		delete(f.extraLatency, node)
		return
	}
	f.extraLatency[node] = d
}

// InjectedLatency reports the current injected latency for a node.
func (f *Fabric) InjectedLatency(node string) time.Duration { return f.extraLatency[node] }

// NewConnID allocates a fresh TCP connection identifier.
func (f *Fabric) NewConnID() uint64 {
	f.nextConn++
	return f.nextConn
}

// The simulated client-side port range, matching the stock
// net.ipv4.ip_local_port_range on the paper's deployment hosts.
const (
	ephemeralMin = 33000
	ephemeralMax = 60999
)

// EphemeralPort allocates a client-side port number. Ports stay
// allocated — and are skipped when the counter wraps — until the
// connection using them closes and the caller hands them back via
// ReleasePort; reusing a port while its connection is still live would
// let two connections share an (addr, port) pairing key at the taps.
// If every port in the range is live, the next port is reused anyway
// (counted in PortReuse) rather than wedging the simulation.
func (f *Fabric) EphemeralPort() int {
	for i := 0; i < ephemeralMax-ephemeralMin+1; i++ {
		f.nextPort++
		if f.nextPort > ephemeralMax {
			f.nextPort = ephemeralMin
		}
		if !f.usedPorts[f.nextPort] {
			f.usedPorts[f.nextPort] = true
			return f.nextPort
		}
	}
	f.PortReuse++
	f.nextPort++
	if f.nextPort > ephemeralMax {
		f.nextPort = ephemeralMin
	}
	return f.nextPort
}

// ReleasePort returns an ephemeral port to the free pool once the
// connection using it has closed. Releasing an already-free port is a
// no-op.
func (f *Fabric) ReleasePort(p int) { delete(f.usedPorts, p) }

// PortsInUse reports how many ephemeral ports are currently allocated.
func (f *Fabric) PortsInUse() int { return len(f.usedPorts) }

// ErrNodeDown is returned by Send when the destination is unreachable.
type ErrNodeDown struct{ Node string }

func (e ErrNodeDown) Error() string { return fmt.Sprintf("cluster: node %s is down", e.Node) }

// Send transmits payload from src to dst. After the link latency elapses,
// taps observe the packet and deliver (if non-nil) runs on the destination.
// Send fails immediately if either node is missing or the destination is
// down (the sender's TCP stack would see a reset/timeout).
func (f *Fabric) Send(srcNode, dstNode, srcAddr, dstAddr string, connID uint64, payload []byte, deliver func(Packet)) error {
	src, ok := f.nodes[srcNode]
	if !ok {
		return fmt.Errorf("cluster: unknown src node %q", srcNode)
	}
	dst, ok := f.nodes[dstNode]
	if !ok {
		return fmt.Errorf("cluster: unknown dst node %q", dstNode)
	}
	if !src.Up {
		return ErrNodeDown{srcNode}
	}
	if !dst.Up {
		return ErrNodeDown{dstNode}
	}
	lat := f.BaseLatency + time.Duration(f.rng.Int63n(int64(f.BaseLatency)/3+1))
	// Injected latency models a tc qdisc on the node's NIC: a packet
	// crosses the source's NIC once and the destination's NIC once, so a
	// loopback send (src == dst) pays the injection once, not twice.
	if srcNode == dstNode {
		lat += f.extraLatency[srcNode]
	} else {
		lat += f.extraLatency[srcNode] + f.extraLatency[dstNode]
	}
	f.Sim.After(lat, func() {
		pkt := Packet{
			Time:    f.Sim.Now(),
			SrcNode: srcNode, DstNode: dstNode,
			SrcAddr: srcAddr, DstAddr: dstAddr,
			ConnID:  connID,
			Payload: payload,
		}
		f.Delivered++
		f.Bytes += uint64(len(payload))
		for _, tap := range f.taps {
			tap(pkt)
		}
		if deliver != nil {
			deliver(pkt)
		}
	})
	return nil
}

// Addr renders "ip:port" for a node and port.
func Addr(n *Node, port int) string { return fmt.Sprintf("%s:%d", n.IP, port) }
