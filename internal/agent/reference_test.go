package agent

import (
	"net/netip"
	"strings"

	"gretel/internal/amqp"
	"gretel/internal/cluster"
	"gretel/internal/rest"
	"gretel/internal/trace"
)

// refMonitor is the Monitor as it was before the in-place scanners: it
// copies every payload into a stream buffer, decodes whole messages
// (rest.ParseRequest/ParseResponse and amqp.Unmarshal, which their own
// packages fuzz against the pre-scanner parsers) and classifies with
// string helpers that rebuild their tables per call. It is the oracle
// of TestMonitorMatchesReference; telemetry aside it is verbatim,
// including the stream it never abandons.
type refMonitor struct {
	Node string
	// ReportPublishLeg controls whether broker publish frames also emit
	// events. Default false: only deliver frames are reported, so each
	// logical RPC message is counted once despite its two wire hops.
	ReportPublishLeg bool
	// Emit, when set, decides whether a parsed event is reported. The
	// monitor still parses everything it sees (pairing state must stay
	// complete); Emit only gates the sink. Per-node deployments feed both
	// endpoints' agents every packet and use OwnerPolicy so each message
	// is reported exactly once.
	Emit func(ev *trace.Event, pkt *cluster.Packet) bool

	sink  Sink
	truth GroundTruth

	// conns maps connID -> pending request metadata for REST pairing.
	conns map[uint64]*pendingREST
	// calls maps RPC msgID -> API for reply pairing.
	calls map[string]trace.API
	// streams accumulates partial bytes per (connID, direction).
	streams map[streamKey][]byte

	// Parsed counts successfully parsed messages; ParseErrors counts
	// stream bytes abandoned as unparseable; Ignored counts packets
	// dropped by the relevance filter.
	Parsed      uint64
	ParseErrors uint64
	Ignored     uint64
}

type pendingREST struct {
	api     trace.API
	src     string
	reqNode string
}

func newRefMonitor(node string, sink Sink, truth GroundTruth) *refMonitor {
	return &refMonitor{
		Node:    node,
		sink:    sink,
		truth:   truth,
		conns:   make(map[uint64]*pendingREST),
		calls:   make(map[string]trace.API),
		streams: make(map[streamKey][]byte),
	}
}

// relevant implements the capture filter: GRETEL monitors only the
// "relevant OpenStack REST and RPC communication" (§5); database traffic
// (MySQL's port) is invisible to it by design — its effects surface
// through API errors and the dependency watchers instead.
func refRelevant(pkt *cluster.Packet) bool {
	mysqlPort := refItoa(cluster.ServicePorts[trace.SvcMySQL])
	for _, addr := range []string{pkt.SrcAddr, pkt.DstAddr} {
		if _, port, ok := strings.Cut(addr, ":"); ok && port == mysqlPort {
			return false
		}
	}
	return true
}

// HandlePacket ingests one tapped packet, reassembling the directional
// byte stream and parsing any complete messages. Irrelevant traffic
// (database protocol) is dropped by the capture filter.
func (m *refMonitor) HandlePacket(pkt cluster.Packet) {
	if !refRelevant(&pkt) {
		m.Ignored++
		return
	}
	key := streamKey{pkt.ConnID, pkt.SrcAddr}
	buf := append(m.streams[key], pkt.Payload...)
	for len(buf) > 0 {
		n, ok := m.parseOne(pkt, buf)
		if !ok {
			break
		}
		buf = buf[n:]
	}
	if len(buf) == 0 {
		delete(m.streams, key)
	} else {
		m.streams[key] = buf
	}
}

// parseOne attempts to parse a single message from buf, emitting an event
// on success. It reports bytes consumed and whether parsing should
// continue.
func (m *refMonitor) parseOne(pkt cluster.Packet, buf []byte) (int, bool) {
	switch {
	case amqp.IsAMQP(buf):
		msg, n, err := amqp.Unmarshal(buf)
		if err != nil {
			if err == amqp.ErrShort {
				return 0, false // wait for more bytes
			}
			m.ParseErrors++
			return len(buf), false // abandon the stream
		}
		m.Parsed++
		m.emitRPC(pkt, msg, n)
		return n, true
	case rest.IsResponse(buf):
		resp, n, err := rest.ParseResponse(buf)
		if err != nil {
			if err == rest.ErrShortMessage {
				return 0, false
			}
			m.ParseErrors++
			return len(buf), false
		}
		m.Parsed++
		m.emitRESTResponse(pkt, resp, n)
		return n, true
	default:
		req, n, err := rest.ParseRequest(buf)
		if err != nil {
			if err == rest.ErrShortMessage {
				return 0, false
			}
			m.ParseErrors++
			return len(buf), false
		}
		m.Parsed++
		m.emitRESTRequest(pkt, req, n)
		return n, true
	}
}

func (m *refMonitor) base(pkt cluster.Packet, wire int) trace.Event {
	ev := trace.Event{
		Time:      pkt.Time,
		SrcNode:   pkt.SrcNode,
		DstNode:   pkt.DstNode,
		SrcAddr:   refEndpoint(pkt.SrcAddr),
		DstAddr:   refEndpoint(pkt.DstAddr),
		ConnID:    pkt.ConnID,
		WireBytes: wire,
	}
	return ev
}

// refEndpoint is the event's view of a packet endpoint; the reference
// keeps classifying by the packet's own strings.
func refEndpoint(addr string) netip.AddrPort {
	ep, _ := netip.ParseAddrPort(addr)
	return ep
}

func (m *refMonitor) decorate(ev *trace.Event) {
	if m.truth != nil {
		ev.OpID, ev.OpName = m.truth(ev.ConnID, ev.MsgID)
	}
}

// deliver gates and sends one parsed event.
func (m *refMonitor) deliver(ev trace.Event, pkt *cluster.Packet) {
	m.decorate(&ev)
	if m.Emit != nil && !m.Emit(&ev, pkt) {
		return
	}
	m.sink(ev)
}

func (m *refMonitor) emitRESTRequest(pkt cluster.Packet, req *rest.Request, wire int) {
	svc := refServiceFromHost(req.Header.Get("Host"))
	if svc == trace.SvcUnknown {
		svc = refServiceFromPort(pkt.DstAddr)
	}
	api := trace.RESTAPI(svc, req.Method, rest.NormalizePath(req.Path))
	m.conns[pkt.ConnID] = &pendingREST{api: api, src: pkt.SrcAddr, reqNode: pkt.SrcNode}
	ev := m.base(pkt, wire)
	ev.Type = trace.RESTRequest
	ev.API = api
	ev.CorrID = req.Header.Get("X-Openstack-Request-Id")
	m.deliver(ev, &pkt)
}

func (m *refMonitor) emitRESTResponse(pkt cluster.Packet, resp *rest.Response, wire int) {
	ev := m.base(pkt, wire)
	ev.Type = trace.RESTResponse
	ev.Status = resp.Status
	ev.CorrID = resp.Header.Get("X-Openstack-Request-Id")
	if p, ok := m.conns[pkt.ConnID]; ok {
		ev.API = p.api
		delete(m.conns, pkt.ConnID)
	} else {
		// Unpaired response: classify by source port only.
		ev.API = trace.RESTAPI(refServiceFromPort(pkt.SrcAddr), "", "")
	}
	if resp.Status >= 400 {
		if mtx := errMessageRe.FindSubmatch(resp.Body); mtx != nil {
			ev.ErrorText = string(mtx[1])
		} else {
			ev.ErrorText = rest.ReasonPhrase(resp.Status)
		}
	}
	m.deliver(ev, &pkt)
}

func (m *refMonitor) emitRPC(pkt cluster.Packet, msg *amqp.Message, wire int) {
	if msg.MethodID == amqp.BasicPublish && !m.ReportPublishLeg {
		return
	}
	env := &msg.Envelope
	ev := m.base(pkt, wire)
	ev.MsgID = env.MsgID
	ev.CorrID = env.ReqID
	switch {
	case env.Method != "":
		svc := refServiceFromTopic(msg.Exchange, msg.RoutingKey)
		api := trace.RPCAPI(svc, env.Method)
		ev.API = api
		if env.ReplyTo != "" {
			ev.Type = trace.RPCCall
			m.calls[env.MsgID] = api
		} else {
			ev.Type = trace.RPCCast
		}
	default:
		ev.Type = trace.RPCReply
		if api, ok := m.calls[env.MsgID]; ok {
			ev.API = api
			delete(m.calls, env.MsgID)
		}
		// The agents' regex scan over the raw envelope text is what the
		// paper prescribes for RPC errors; our Unmarshal has already
		// surfaced the failure string, so the scan runs over it directly.
		if mtx := rpcFailureRe.FindSubmatch([]byte(`"failure":"` + env.Failure + `"`)); mtx != nil && env.Failure != "" {
			ev.Status = 1
			ev.ErrorText = string(mtx[1])
		}
	}
	m.deliver(ev, &pkt)
}

// serviceFromHost maps an HTTP Host header to the owning service.
func refServiceFromHost(host string) trace.Service {
	host, _, _ = strings.Cut(host, ":")
	for _, svc := range trace.Services() {
		if svc.String() == host {
			return svc
		}
	}
	return trace.SvcUnknown
}

// serviceFromPort maps an "ip:port" endpoint to the service listening on
// that well-known port.
func refServiceFromPort(addr string) trace.Service {
	_, port, ok := strings.Cut(addr, ":")
	if !ok {
		return trace.SvcUnknown
	}
	for svc, p := range cluster.ServicePorts {
		if port == refItoa(p) {
			return svc
		}
	}
	return trace.SvcUnknown
}

func refItoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// serviceFromTopic maps broker routing metadata to the consumer service.
func refServiceFromTopic(exchange, routingKey string) trace.Service {
	switch {
	case routingKey == "compute" || strings.HasPrefix(routingKey, "compute."):
		return trace.SvcNovaCompute
	case strings.HasPrefix(routingKey, "q-agent-notifier"):
		return trace.SvcNeutronAgent
	case strings.HasPrefix(routingKey, "topic."):
		name := strings.TrimPrefix(routingKey, "topic.")
		for _, svc := range trace.Services() {
			if svc.String() == name {
				return svc
			}
		}
	case strings.HasPrefix(routingKey, "reply_"):
		name := strings.TrimPrefix(routingKey, "reply_")
		for _, svc := range trace.Services() {
			if svc.String() == name {
				return svc
			}
		}
	}
	// Fall back to the exchange name.
	for _, svc := range trace.Services() {
		if svc.String() == exchange {
			return svc
		}
	}
	return trace.SvcUnknown
}
