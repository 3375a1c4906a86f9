// Package agent implements GRETEL's distributed monitoring agents — the
// Bro analogue of §5.1/§6: passive taps that parse raw REST and RPC wire
// bytes into events, resource pollers, and software-dependency watchers.
//
// The network agent reconstructs per-connection byte streams from tapped
// packets and scans them in place (rest.ScanRequest/ScanResponse,
// amqp.Scan), extracting only header-level metadata: the API (verb +
// normalized URI, or RPC method + topic), the endpoints, status codes,
// and error excerpts found by lightweight regular-expression scans. It
// never decodes JSON argument payloads, and it allocates only the
// strings an emitted event keeps: a delivered event shares no memory
// with the packet it came from.
package agent

import (
	"bytes"
	"net/netip"
	"regexp"

	"gretel/internal/amqp"
	"gretel/internal/cluster"
	"gretel/internal/rest"
	"gretel/internal/telemetry"
	"gretel/internal/trace"
)

// Monitoring-layer telemetry, aggregated across every Monitor in the
// process (the per-Monitor Parsed/ParseErrors/Ignored fields stay as the
// per-agent view). Emitted events are broken out per destination service
// so an operator can see which OpenStack component dominates the stream.
var (
	mPacketsSeen    = telemetry.GetCounter("agent.packets_seen")
	mPacketsIrrel   = telemetry.GetCounter("agent.packets_irrelevant")
	mParsed         = telemetry.GetCounter("agent.packets_parsed")
	mParseErrors    = telemetry.GetCounter("agent.parse_errors")
	mPendingEvicted = telemetry.GetCounter("agent.pending_evicted")
	mBadEndpoints   = telemetry.GetCounter("agent.monitor.bad_endpoints")
	mEmittedBySvc   = func() []*telemetry.Counter {
		svcs := trace.Services()
		out := make([]*telemetry.Counter, len(svcs)+1) // values are contiguous from SvcUnknown
		out[trace.SvcUnknown] = telemetry.GetCounter("agent.events_emitted.unknown")
		for _, s := range svcs {
			out[s] = telemetry.GetCounter("agent.events_emitted." + s.String())
		}
		return out
	}()
)

// What a tap can be made to hold is bounded: a peer that never completes
// a message, or requests that are never answered, must not grow it.
const (
	// maxStreamBytes caps one direction's reassembly buffer; a stream
	// that exceeds it is abandoned like a corrupt one.
	maxStreamBytes = 1 << 20
	// maxPending caps each table of requests awaiting their response.
	maxPending = 1 << 16
)

// Sink receives parsed events in capture order.
type Sink func(trace.Event)

// GroundTruth optionally decorates events with the evaluation-only
// operation identity. Detectors never read these fields.
type GroundTruth func(connID uint64, msgID string) (opID uint64, opName string)

// errMessageRe extracts the human-readable error from an OpenStack-style
// REST error body — the paper's "lightweight regular expression checks"
// over the payload (§5.3, §6).
var errMessageRe = regexp.MustCompile(`"message"\s*:\s*"([^"]*)"`)

// rpcFailureRe extracts the oslo failure string from an RPC reply body.
var rpcFailureRe = regexp.MustCompile(`"failure"\s*:\s*"([^"]*)"`)

// Monitor is one node-resident network agent. Feed it tapped packets; it
// emits events through the sink. It is driven single-threaded by the
// simulation (or by one reader goroutine per TCP tap in live mode).
type Monitor struct {
	Node string
	// ReportPublishLeg controls whether broker publish frames also emit
	// events. Default false: only deliver frames are reported, so each
	// logical RPC message is counted once despite its two wire hops.
	ReportPublishLeg bool
	// Emit, when set, decides whether a parsed event is reported. The
	// monitor still parses everything it sees (pairing state must stay
	// complete); Emit only gates the sink. Per-node deployments feed both
	// endpoints' agents every packet and use OwnerPolicy so each message
	// is reported exactly once. Both arguments are the Monitor's own
	// scratch, valid until Emit returns.
	Emit func(ev *trace.Event, pkt *cluster.Packet) bool

	sink  Sink
	truth GroundTruth

	// conns maps connID -> the pending request's API for REST pairing.
	conns pending[uint64]
	// calls maps RPC msgID -> API for reply pairing.
	calls pending[string]
	// streams holds the unparsed tail per (connID, direction); a stream
	// whose packets each end on a message boundary never has an entry.
	streams map[streamKey][]byte

	// pkt and ev are the packet being handled and the event being
	// built. They live here rather than on HandlePacket's stack because
	// their addresses reach Emit, which would otherwise move both to the
	// heap on every packet. src and dst are pkt's endpoints, parsed once.
	pkt      cluster.Packet
	src, dst netip.AddrPort
	eps      endpoints
	ev       trace.Event
	// scratch is reused for the normalized path and the failure scan.
	scratch []byte
	// apis interns API.Method and API.Path: a finite set, so an event's
	// API strings cost nothing once the deployment's surface is seen.
	apis trace.Interner

	// Parsed counts successfully parsed messages; ParseErrors counts
	// streams abandoned as unparseable (or as over maxStreamBytes);
	// Ignored counts packets dropped by the relevance filter.
	Parsed      uint64
	ParseErrors uint64
	Ignored     uint64
}

type streamKey struct {
	conn uint64
	src  string
}

// pending is a table of requests awaiting their response, bounded at
// maxPending entries in two generations: when the young one holds half
// the bound the old one is dropped whole, so the most recent maxPending/2
// requests always survive and nothing is scanned to choose a victim.
type pending[K comparable] struct{ young, old map[K]trace.API }

func (p *pending[K]) put(k K, api trace.API) {
	if len(p.young) >= maxPending/2 {
		mPendingEvicted.Add(uint64(len(p.old)))
		p.old, p.young = p.young, nil
	}
	if p.young == nil {
		p.young = make(map[K]trace.API)
	}
	delete(p.old, k)
	p.young[k] = api
}

func (p *pending[K]) take(k K) (api trace.API, ok bool) {
	if api, ok = p.young[k]; ok {
		delete(p.young, k)
	} else if api, ok = p.old[k]; ok {
		delete(p.old, k)
	}
	return api, ok
}

// NewMonitor builds an agent for a node. truth may be nil.
func NewMonitor(node string, sink Sink, truth GroundTruth) *Monitor {
	return &Monitor{
		Node:    node,
		sink:    sink,
		truth:   truth,
		streams: make(map[streamKey][]byte),
	}
}

// The well-known ports, built once.
var (
	mysqlPort     = uint16(cluster.ServicePorts[trace.SvcMySQL])
	serviceByPort = func() map[uint16]trace.Service {
		out := make(map[uint16]trace.Service, len(cluster.ServicePorts))
		for svc, p := range cluster.ServicePorts {
			out[uint16(p)] = svc
		}
		return out
	}()
)

// endpoints turns a packet's "ip:port" (or "[ip6]:port") strings into
// values, memoized: a deployment's listeners are a handful of strings
// and a client's ephemeral endpoint recurs on every packet of its
// connection, so most packets parse nothing. Direct-mapped on the
// string's last four bytes (the port's digits, where endpoints differ
// most); a collision just parses again.
type endpoints [256]struct {
	addr string
	ep   netip.AddrPort
}

// parse returns addr's endpoint without its zone — a captured packet
// carries none, and the event body has no room for one. One that does
// not parse is the zero value, counted at every sighting: the event
// still flows, classified without its port.
func (c *endpoints) parse(addr string) netip.AddrPort {
	n := len(addr)
	if n < 4 { // too short for an endpoint, and for the hash
		mBadEndpoints.Inc()
		return netip.AddrPort{}
	}
	h := uint32(addr[n-1]) | uint32(addr[n-2])<<8 | uint32(addr[n-3])<<16 | uint32(addr[n-4])<<24
	e := &c[h*0x9E3779B1>>24]
	if e.addr != addr {
		ep, ok := parseIPv4Port(addr)
		if !ok {
			var err error
			if ep, err = netip.ParseAddrPort(addr); err != nil {
				mBadEndpoints.Inc()
				return netip.AddrPort{}
			}
			ep = netip.AddrPortFrom(ep.Addr().WithZone(""), ep.Port())
		}
		e.addr, e.ep = addr, ep
	}
	return e.ep
}

// parseIPv4Port parses the common "a.b.c.d:port" by hand — each octet
// 0 to 255 without a leading zero, the port one to five digits up to
// 65535 — to exactly what netip.ParseAddrPort returns for it. ok is
// false for any other shape (IPv6, a zone, a longer port, anything
// odd), which the caller hands to netip.
func parseIPv4Port(s string) (ep netip.AddrPort, ok bool) {
	var ip [4]byte
	k, v, n, i := 0, uint(0), 0, 0 // the octet, its value and digits so far; the byte
	for ; i < len(s); i++ {
		c := s[i]
		if d := uint(c - '0'); d <= 9 {
			if n == 1 && v == 0 { // a leading zero
				return netip.AddrPort{}, false
			}
			if v, n = v*10+d, n+1; v > 255 {
				return netip.AddrPort{}, false
			}
			continue
		}
		if n == 0 {
			return netip.AddrPort{}, false
		}
		ip[k] = byte(v)
		if k == len(ip)-1 {
			if c != ':' {
				return netip.AddrPort{}, false
			}
			break
		}
		if c != '.' {
			return netip.AddrPort{}, false
		}
		k, v, n = k+1, 0, 0
	}
	if i == len(s) { // no ':' after a fourth octet
		return netip.AddrPort{}, false
	}
	port := s[i+1:]
	if len(port) == 0 || len(port) > 5 {
		return netip.AddrPort{}, false
	}
	p := uint(0)
	for j := 0; j < len(port); j++ {
		d := uint(port[j] - '0')
		if d > 9 {
			return netip.AddrPort{}, false
		}
		p = p*10 + d
	}
	if p > 65535 {
		return netip.AddrPort{}, false
	}
	return netip.AddrPortFrom(netip.AddrFrom4(ip), uint16(p)), true
}

// HandlePacket ingests one tapped packet, reassembling the directional
// byte stream and parsing any complete messages. The capture filter
// drops irrelevant traffic: GRETEL monitors only the "relevant OpenStack
// REST and RPC communication" (§5); database traffic (MySQL's port) is
// invisible to it by design — its effects surface through API errors
// and the dependency watchers instead. The payload is only read, and
// nothing the Monitor keeps or delivers aliases it once HandlePacket
// returns.
func (m *Monitor) HandlePacket(pkt cluster.Packet) {
	mPacketsSeen.Inc()
	src, dst := m.eps.parse(pkt.SrcAddr), m.eps.parse(pkt.DstAddr)
	if src.Port() == mysqlPort || dst.Port() == mysqlPort {
		m.Ignored++
		mPacketsIrrel.Inc()
		return
	}
	m.pkt, m.src, m.dst = pkt, src, dst
	key := streamKey{pkt.ConnID, pkt.SrcAddr}
	// In place when nothing is held for the stream — every packet of a
	// message-per-packet sender; otherwise behind the held tail.
	buf := pkt.Payload
	var held []byte
	if len(m.streams) > 0 { // skip hashing the key on the common path
		held = m.streams[key]
	}
	if held != nil {
		held = append(held, pkt.Payload...)
		buf = held
	}
	for len(buf) > 0 {
		n, err := m.parseOne(buf)
		if n == 0 {
			if err == nil && len(buf) <= maxStreamBytes {
				break // an incomplete message: wait for more bytes
			}
			// A corrupt (or never-completing) stream is abandoned: what
			// is held is dropped, so the next packet starts clean.
			m.ParseErrors++
			mParseErrors.Inc()
			buf = nil
			break
		}
		m.Parsed++
		mParsed.Inc()
		buf = buf[n:]
	}
	switch {
	case len(buf) > 0:
		m.streams[key] = append(held[:0], buf...) // held is nil or buf's own backing array
	case held != nil:
		delete(m.streams, key)
	}
}

// parseOne scans a single message at the front of buf and emits its
// event. It reports the bytes consumed; zero with a nil error means the
// message is incomplete, zero with an error that it cannot be parsed.
func (m *Monitor) parseOne(buf []byte) (n int, err error) {
	switch {
	case amqp.IsAMQP(buf):
		var msg amqp.View
		if msg, n, err = amqp.Scan(buf); err == nil {
			m.emitRPC(&msg, n)
		}
	case rest.IsResponse(buf):
		var resp rest.ResponseView
		if resp, n, err = rest.ScanResponse(buf); err == nil {
			m.emitRESTResponse(&resp, n)
		}
	default:
		var req rest.RequestView
		if req, n, err = rest.ScanRequest(buf); err == nil {
			m.emitRESTRequest(&req, n)
		}
	}
	if err == amqp.ErrShort || err == rest.ErrShortMessage {
		err = nil // wait for more bytes
	}
	return n, err
}

// begin resets the scratch event to the packet-derived fields.
func (m *Monitor) begin(typ trace.EventType, wire int) *trace.Event {
	ev, pkt := &m.ev, &m.pkt
	*ev = trace.Event{} // in place: a literal with fields would be built aside and copied
	ev.Time, ev.Type, ev.SrcNode, ev.DstNode = pkt.Time, typ, pkt.SrcNode, pkt.DstNode
	ev.SrcAddr, ev.DstAddr, ev.ConnID, ev.WireBytes = m.src, m.dst, pkt.ConnID, wire
	return ev
}

// deliver decorates, gates and sends the scratch event.
func (m *Monitor) deliver() {
	ev := &m.ev
	if m.truth != nil {
		ev.OpID, ev.OpName = m.truth(ev.ConnID, ev.MsgID)
	}
	if m.Emit != nil && !m.Emit(ev, &m.pkt) {
		return
	}
	if svc := int(ev.API.Service); svc < len(mEmittedBySvc) {
		mEmittedBySvc[svc].Inc()
	}
	m.sink(*ev)
}

// OwnerPolicy returns the per-node Emit policy: a message is owned by the
// server side of its exchange — requests and RPC deliveries by their
// destination node, responses by their source node — so running one agent
// per node reports every message exactly once with pairing intact.
func OwnerPolicy(node string) func(ev *trace.Event, pkt *cluster.Packet) bool {
	return func(ev *trace.Event, pkt *cluster.Packet) bool {
		switch ev.Type {
		case trace.RESTResponse:
			return pkt.SrcNode == node
		default:
			return pkt.DstNode == node
		}
	}
}

func (m *Monitor) emitRESTRequest(req *rest.RequestView, wire int) {
	svc := serviceFromHost(req.Host)
	if svc == trace.SvcUnknown {
		svc = serviceFromPort(m.dst)
	}
	m.scratch = rest.AppendNormalizedPath(m.scratch[:0], req.Path)
	api := trace.RESTAPI(svc, m.apis.Intern(req.Method), m.apis.Intern(m.scratch))
	m.conns.put(m.pkt.ConnID, api)
	ev := m.begin(trace.RESTRequest, wire)
	ev.API = api
	ev.CorrID = string(req.RequestID)
	m.deliver()
}

func (m *Monitor) emitRESTResponse(resp *rest.ResponseView, wire int) {
	ev := m.begin(trace.RESTResponse, wire)
	ev.Status = resp.Status
	ev.CorrID = string(resp.RequestID)
	if api, ok := m.conns.take(m.pkt.ConnID); ok {
		ev.API = api
	} else {
		// Unpaired response: classify by source port only.
		ev.API = trace.RESTAPI(serviceFromPort(m.src), "", "")
	}
	if resp.Status >= 400 {
		if mtx := errMessageRe.FindSubmatch(resp.Body); mtx != nil {
			ev.ErrorText = string(mtx[1])
		} else {
			ev.ErrorText = rest.ReasonPhrase(resp.Status)
		}
	}
	m.deliver()
}

func (m *Monitor) emitRPC(msg *amqp.View, wire int) {
	if msg.MethodID == amqp.BasicPublish && !m.ReportPublishLeg {
		return
	}
	ev := m.begin(trace.RPCReply, wire)
	ev.MsgID = string(msg.MsgID)
	ev.CorrID = string(msg.ReqID)
	switch {
	case len(msg.Method) > 0:
		ev.API = trace.RPCAPI(serviceFromTopic(msg.Exchange, msg.RoutingKey), m.apis.Intern(msg.Method))
		if len(msg.ReplyTo) > 0 {
			ev.Type = trace.RPCCall
			m.calls.put(ev.MsgID, ev.API)
		} else {
			ev.Type = trace.RPCCast
		}
	default:
		if api, ok := m.calls.take(ev.MsgID); ok {
			ev.API = api
		}
		// The agents' regex scan over the raw envelope text is what the
		// paper prescribes for RPC errors; the envelope scan has already
		// surfaced the (unescaped) failure string, so the regex runs
		// over it, re-quoted in scratch — on failed replies only.
		if len(msg.Failure) > 0 {
			m.scratch = append(append(append(m.scratch[:0], `"failure":"`...), msg.Failure...), '"')
			if mtx := rpcFailureRe.FindSubmatch(m.scratch); mtx != nil {
				ev.Status = 1
				ev.ErrorText = string(mtx[1])
			}
		}
	}
	m.deliver()
}

// serviceFromHost maps an HTTP Host header to the owning service.
func serviceFromHost(host []byte) trace.Service {
	if i := bytes.IndexByte(host, ':'); i >= 0 {
		host = host[:i]
	}
	return trace.ServiceByName(string(host))
}

// serviceFromPort maps an endpoint to the service listening on that
// well-known port.
func serviceFromPort(ep netip.AddrPort) trace.Service {
	return serviceByPort[ep.Port()] // SvcUnknown, the zero Service, when absent
}

// serviceFromTopic maps broker routing metadata to the consumer service.
func serviceFromTopic(exchange, routingKey []byte) trace.Service {
	if string(routingKey) == "compute" || bytes.HasPrefix(routingKey, []byte("compute.")) {
		return trace.SvcNovaCompute
	}
	if bytes.HasPrefix(routingKey, []byte("q-agent-notifier")) {
		return trace.SvcNeutronAgent
	}
	name, ok := bytes.CutPrefix(routingKey, []byte("topic."))
	if !ok {
		name, ok = bytes.CutPrefix(routingKey, []byte("reply_"))
	}
	if ok {
		if svc := trace.ServiceByName(string(name)); svc != trace.SvcUnknown {
			return svc
		}
	}
	// Fall back to the exchange name.
	return trace.ServiceByName(string(exchange))
}

// DepStatus is one watcher observation: a software dependency and whether
// it is alive on a node.
type DepStatus struct {
	Node    string
	Name    string
	Running bool
}
