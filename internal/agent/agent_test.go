package agent

import (
	"encoding/json"
	"net/netip"
	"testing"
	"time"

	"gretel/internal/amqp"
	"gretel/internal/cluster"
	"gretel/internal/rest"
	"gretel/internal/trace"
)

func pkt(conn uint64, src, dst string, payload []byte) cluster.Packet {
	return cluster.Packet{
		Time:    time.Date(2016, 12, 12, 0, 0, 0, 0, time.UTC),
		SrcNode: "src-node", DstNode: "dst-node",
		SrcAddr: src, DstAddr: dst,
		ConnID: conn, Payload: payload,
	}
}

func collect() (*[]trace.Event, Sink) {
	events := &[]trace.Event{}
	return events, func(ev trace.Event) { *events = append(*events, ev) }
}

func restReqBytes(method, path, host string) []byte {
	req := &rest.Request{Method: method, Path: path, Body: []byte(`{}`)}
	req.Header.Set("Host", host)
	return rest.MarshalRequest(req)
}

func restRespBytes(status int, body string) []byte {
	resp := &rest.Response{Status: status, Body: []byte(body)}
	return rest.MarshalResponse(resp)
}

func TestMonitorParsesRESTExchange(t *testing.T) {
	events, sink := collect()
	m := NewMonitor("n1", sink, nil)

	m.HandlePacket(pkt(1, "10.0.0.1:40000", "10.0.0.3:8774",
		restReqBytes("POST", "/v2.1/servers", "nova")))
	m.HandlePacket(pkt(1, "10.0.0.3:8774", "10.0.0.1:40000",
		restRespBytes(201, `{"server":{}}`)))

	if len(*events) != 2 {
		t.Fatalf("events = %d", len(*events))
	}
	req, resp := (*events)[0], (*events)[1]
	if req.Type != trace.RESTRequest || req.API != trace.RESTAPI(trace.SvcNova, "POST", "/v2.1/servers") {
		t.Fatalf("request event: %+v", req)
	}
	if resp.Type != trace.RESTResponse || resp.Status != 201 || resp.API != req.API {
		t.Fatalf("response event: %+v", resp)
	}
	if m.Parsed != 2 || m.ParseErrors != 0 {
		t.Fatalf("parsed=%d errors=%d", m.Parsed, m.ParseErrors)
	}
}

func TestMonitorNormalizesConcreteIDs(t *testing.T) {
	events, sink := collect()
	m := NewMonitor("n1", sink, nil)
	m.HandlePacket(pkt(2, "10.0.0.1:1", "10.0.0.2:9292",
		restReqBytes("PUT", "/v2/images/6f1c3b2a-99aa-4b1c-8d77-aabbccddeeff/file", "glance")))
	if got := (*events)[0].API.Path; got != "/v2/images/{id}/file" {
		t.Fatalf("path = %q", got)
	}
}

func TestMonitorFallsBackToPortClassification(t *testing.T) {
	events, sink := collect()
	m := NewMonitor("n1", sink, nil)
	m.HandlePacket(pkt(3, "10.0.0.1:1", "10.0.0.4:9696", restReqBytes("GET", "/v2.0/ports.json", "")))
	if got := (*events)[0].API.Service; got != trace.SvcNeutron {
		t.Fatalf("service = %v (want port-based neutron)", got)
	}
}

// TestMonitorIPv6Endpoints: the capture filter and the port fallback read
// the port of a bracketed IPv6 endpoint (cutting at the first colon found
// none, so database bytes reached the scanners and every IPv6 listener
// was SvcUnknown). A zone does not survive the tap; an endpoint that does
// not parse, or is not there, is counted, and its event still flows.
func TestMonitorIPv6Endpoints(t *testing.T) {
	events, sink := collect()
	m := NewMonitor("n1", sink, nil)
	m.HandlePacket(pkt(1, "[fd00::1]:40000", "[fd00::5]:3306", []byte("\x03SELECT 1")))
	if m.Ignored != 1 || m.ParseErrors != 0 || len(*events) != 0 {
		t.Fatalf("IPv6 MySQL packet: ignored=%d errors=%d events=%d, want it filtered", m.Ignored, m.ParseErrors, len(*events))
	}
	m.HandlePacket(pkt(2, "[fd00::2%eth0]:9292", "[fd00::1]:40000", restRespBytes(200, `{}`)))
	if len(*events) != 1 {
		t.Fatalf("events = %d, want the unpaired response", len(*events))
	}
	if ev := (*events)[0]; ev.API != trace.RESTAPI(trace.SvcGlance, "", "") ||
		ev.SrcAddr != netip.MustParseAddrPort("[fd00::2]:9292") || ev.DstAddr != netip.MustParseAddrPort("[fd00::1]:40000") {
		t.Fatalf("IPv6 :9292 response: %+v, want glance from [fd00::2]:9292 without its zone", ev)
	}

	bad := mBadEndpoints.Value()
	m.HandlePacket(pkt(3, "a:1", "10.0.0.4:9696", restReqBytes("GET", "/v2.0/ports.json", "")))
	m.HandlePacket(pkt(4, "", "10.0.0.4:9696", restReqBytes("GET", "/v2.0/ports.json", "")))
	if got := mBadEndpoints.Value() - bad; got != 2 {
		t.Fatalf("agent.monitor.bad_endpoints grew by %d, want 2", got)
	}
	for _, ev := range (*events)[1:] {
		if ev.SrcAddr.IsValid() || ev.DstAddr != netip.MustParseAddrPort("10.0.0.4:9696") || ev.API.Service != trace.SvcNeutron {
			t.Fatalf("event with an unusable source endpoint: %+v", ev)
		}
	}
	if len(*events) != 3 {
		t.Fatalf("events = %d, want 3", len(*events))
	}
}

func TestMonitorExtractsErrorText(t *testing.T) {
	events, sink := collect()
	m := NewMonitor("n1", sink, nil)
	m.HandlePacket(pkt(4, "10.0.0.1:1", "10.0.0.2:9292", restReqBytes("PUT", "/v2/images/1234abcd99/file", "glance")))
	m.HandlePacket(pkt(4, "10.0.0.2:9292", "10.0.0.1:1",
		restRespBytes(413, `{"error": {"code": 413, "message": "Request Entity Too Large"}}`)))
	resp := (*events)[1]
	if resp.ErrorText != "Request Entity Too Large" {
		t.Fatalf("error text = %q", resp.ErrorText)
	}
	// Error body without a message field falls back to the reason phrase.
	m.HandlePacket(pkt(5, "10.0.0.1:1", "10.0.0.2:9292", restReqBytes("GET", "/v2/images", "glance")))
	m.HandlePacket(pkt(5, "10.0.0.2:9292", "10.0.0.1:1", restRespBytes(503, `{}`)))
	if got := (*events)[3].ErrorText; got != "Service Unavailable" {
		t.Fatalf("fallback error text = %q", got)
	}
}

func TestMonitorSplitPackets(t *testing.T) {
	// A message fragmented across packets must reassemble.
	events, sink := collect()
	m := NewMonitor("n1", sink, nil)
	raw := restReqBytes("GET", "/v2.1/servers/detail", "nova")
	half := len(raw) / 2
	m.HandlePacket(pkt(6, "10.0.0.1:1", "10.0.0.2:8774", raw[:half]))
	if len(*events) != 0 {
		t.Fatal("emitted event from half a message")
	}
	m.HandlePacket(pkt(6, "10.0.0.1:1", "10.0.0.2:8774", raw[half:]))
	if len(*events) != 1 {
		t.Fatalf("events = %d after reassembly", len(*events))
	}
}

func TestMonitorPipelinedMessages(t *testing.T) {
	events, sink := collect()
	m := NewMonitor("n1", sink, nil)
	raw := append(restReqBytes("GET", "/a", "nova"), restReqBytes("GET", "/b", "nova")...)
	m.HandlePacket(pkt(7, "10.0.0.1:1", "10.0.0.2:8774", raw))
	if len(*events) != 2 {
		t.Fatalf("events = %d, want 2 from one packet", len(*events))
	}
}

func rpcBytes(t *testing.T, methodID uint16, exchange, key, msgID, method, failure string, replyTo string) []byte {
	t.Helper()
	m := &amqp.Message{
		MethodID: methodID, Exchange: exchange, RoutingKey: key,
		Envelope: amqp.Envelope{MsgID: msgID, Method: method, ReplyTo: replyTo, Failure: failure},
	}
	if method != "" {
		m.Envelope.Args = json.RawMessage(`{}`)
	}
	raw, err := amqp.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestMonitorSkipsPublishLegByDefault(t *testing.T) {
	events, sink := collect()
	m := NewMonitor("n1", sink, nil)
	m.HandlePacket(pkt(8, "10.0.0.1:1", "10.0.0.2:5672",
		rpcBytes(t, amqp.BasicPublish, "nova", "compute", "m1", "build_and_run_instance", "", "reply_nova")))
	if len(*events) != 0 {
		t.Fatal("publish leg reported")
	}
	m.HandlePacket(pkt(9, "10.0.0.2:5672", "10.0.0.3:8775",
		rpcBytes(t, amqp.BasicDeliver, "nova", "compute", "m1", "build_and_run_instance", "", "reply_nova")))
	if len(*events) != 1 {
		t.Fatal("deliver leg not reported")
	}
	ev := (*events)[0]
	if ev.Type != trace.RPCCall || ev.API != trace.RPCAPI(trace.SvcNovaCompute, "build_and_run_instance") {
		t.Fatalf("rpc event: %+v", ev)
	}

	m2 := NewMonitor("n2", sink, nil)
	m2.ReportPublishLeg = true
	m2.HandlePacket(pkt(10, "10.0.0.1:1", "10.0.0.2:5672",
		rpcBytes(t, amqp.BasicPublish, "nova", "compute", "m2", "x", "", "reply_nova")))
	if len(*events) != 2 {
		t.Fatal("publish leg not reported when enabled")
	}
}

func TestMonitorRPCCastAndReply(t *testing.T) {
	events, sink := collect()
	m := NewMonitor("n1", sink, nil)
	// Cast: method set, no reply-to.
	m.HandlePacket(pkt(11, "10.0.0.2:5672", "10.0.0.3:8775",
		rpcBytes(t, amqp.BasicDeliver, "nova", "topic.nova", "hb1", "report_state", "", "")))
	if (*events)[0].Type != trace.RPCCast {
		t.Fatalf("cast type = %v", (*events)[0].Type)
	}
	// Call then failed reply pairs by msg id and carries the failure text.
	m.HandlePacket(pkt(12, "10.0.0.2:5672", "10.0.0.3:8775",
		rpcBytes(t, amqp.BasicDeliver, "cinder", "topic.cinder", "m9", "create_volume", "", "reply_cinder")))
	m.HandlePacket(pkt(13, "10.0.0.2:5672", "10.0.0.4:8776",
		rpcBytes(t, amqp.BasicDeliver, "", "reply_cinder", "m9", "", "VolumeBackendAPIException: boom", "")))
	reply := (*events)[2]
	if reply.Type != trace.RPCReply || reply.Status == 0 {
		t.Fatalf("reply event: %+v", reply)
	}
	if reply.API != trace.RPCAPI(trace.SvcCinder, "create_volume") {
		t.Fatalf("reply API not paired: %v", reply.API)
	}
	if reply.ErrorText != "VolumeBackendAPIException: boom" {
		t.Fatalf("failure text = %q", reply.ErrorText)
	}
}

func TestMonitorGroundTruthDecoration(t *testing.T) {
	events, sink := collect()
	m := NewMonitor("n1", sink, func(conn uint64, msgID string) (uint64, string) {
		if conn == 20 {
			return 77, "vm-create"
		}
		return 0, ""
	})
	m.HandlePacket(pkt(20, "10.0.0.1:1", "10.0.0.2:8774", restReqBytes("GET", "/v2.1/servers", "nova")))
	if (*events)[0].OpID != 77 || (*events)[0].OpName != "vm-create" {
		t.Fatalf("ground truth missing: %+v", (*events)[0])
	}
}

func TestMonitorAbandonsCorruptStream(t *testing.T) {
	events, sink := collect()
	m := NewMonitor("n1", sink, nil)
	m.HandlePacket(pkt(21, "10.0.0.1:1", "10.0.0.2:8774", []byte("GARBAGE\r\nNoColon\r\n\r\n")))
	if len(*events) != 0 {
		t.Fatal("event from garbage")
	}
	if m.ParseErrors != 1 {
		t.Fatalf("parse errors = %d, want 1", m.ParseErrors)
	}
	// Abandoned means dropped: nothing is held, so the connection's next
	// message parses from a clean start instead of behind the garbage.
	if len(m.streams) != 0 {
		t.Fatalf("%d streams held after a corrupt one was abandoned", len(m.streams))
	}
	for i := 0; i < 100; i++ {
		m.HandlePacket(pkt(21, "10.0.0.1:1", "10.0.0.2:8774", restReqBytes("GET", "/v2.1/servers", "nova")))
	}
	if len(*events) != 100 || m.ParseErrors != 1 || len(m.streams) != 0 {
		t.Fatalf("after 100 valid requests: events=%d errors=%d streams=%d", len(*events), m.ParseErrors, len(m.streams))
	}
	// The same on the held-tail path: garbage arriving behind a partial
	// message drops the tail with it.
	m.HandlePacket(pkt(22, "10.0.0.1:1", "10.0.0.2:8774", []byte("GARBAGE\r\nNoCol")))
	m.HandlePacket(pkt(22, "10.0.0.1:1", "10.0.0.2:8774", []byte("on\r\n\r\n")))
	if m.ParseErrors != 2 || len(m.streams) != 0 {
		t.Fatalf("split garbage: errors=%d streams=%d", m.ParseErrors, len(m.streams))
	}
}

func TestServiceHelpers(t *testing.T) {
	if serviceFromHost([]byte("nova")) != trace.SvcNova || serviceFromHost([]byte("nova:8774")) != trace.SvcNova {
		t.Error("serviceFromHost")
	}
	if serviceFromHost([]byte("whatever")) != trace.SvcUnknown || serviceFromHost(nil) != trace.SvcUnknown {
		t.Error("serviceFromHost unknown")
	}
	var eps endpoints
	if serviceFromPort(eps.parse("1.2.3.4:9696")) != trace.SvcNeutron || serviceFromPort(eps.parse("[fd00::4%eth0]:9696")) != trace.SvcNeutron {
		t.Error("serviceFromPort")
	}
	if serviceFromPort(eps.parse("nonsense")) != trace.SvcUnknown || serviceFromPort(eps.parse("1.2.3.4:1")) != trace.SvcUnknown {
		t.Error("serviceFromPort unknown")
	}
	cases := map[[2]string]trace.Service{
		{"nova", "compute"}:             trace.SvcNovaCompute,
		{"nova", "compute.compute-2"}:   trace.SvcNovaCompute,
		{"neutron", "q-agent-notifier"}: trace.SvcNeutronAgent,
		{"cinder", "topic.cinder"}:      trace.SvcCinder,
		{"", "reply_nova"}:              trace.SvcNova,
		{"glance", "weird"}:             trace.SvcGlance, // exchange fallback
		{"glance", "topic.nosuch"}:      trace.SvcGlance,
		{"unknown-exch", "weird"}:       trace.SvcUnknown,
	}
	for in, want := range cases {
		if got := serviceFromTopic([]byte(in[0]), []byte(in[1])); got != want {
			t.Errorf("serviceFromTopic(%q,%q) = %v, want %v", in[0], in[1], got, want)
		}
	}
}

func TestOwnerPolicyExactlyOnceWithPairing(t *testing.T) {
	// Two per-node monitors each see both directions of a REST exchange;
	// the owner policy must yield exactly one request and one response
	// event, both with a paired API on the response.
	var events []trace.Event
	sink := func(ev trace.Event) { events = append(events, ev) }
	mkMon := func(node string) *Monitor {
		m := NewMonitor(node, sink, nil)
		m.Emit = OwnerPolicy(node)
		return m
	}
	client := mkMon("horizon-node")
	server := mkMon("nova-node")

	req := pkt(1, "10.0.0.1:40000", "10.0.0.3:8774", restReqBytes("POST", "/v2.1/servers", "nova"))
	req.SrcNode, req.DstNode = "horizon-node", "nova-node"
	resp := pkt(1, "10.0.0.3:8774", "10.0.0.1:40000", restRespBytes(500, `{"error":{"message":"boom"}}`))
	resp.SrcNode, resp.DstNode = "nova-node", "horizon-node"

	for _, p := range []cluster.Packet{req, resp} {
		client.HandlePacket(p)
		server.HandlePacket(p)
	}
	if len(events) != 2 {
		t.Fatalf("events = %d, want 2 (exactly once)", len(events))
	}
	if events[0].Type != trace.RESTRequest || events[1].Type != trace.RESTResponse {
		t.Fatalf("event types: %v %v", events[0].Type, events[1].Type)
	}
	if events[1].API.Zero() || events[1].API.Path != "/v2.1/servers" {
		t.Fatalf("response not paired: %+v", events[1].API)
	}
	if events[1].ErrorText != "boom" {
		t.Fatalf("error text = %q", events[1].ErrorText)
	}
}
