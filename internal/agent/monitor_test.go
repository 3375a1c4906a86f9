package agent

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
	"time"

	"gretel/internal/amqp"
	"gretel/internal/cluster"
	"gretel/internal/openstack"
	"gretel/internal/rest"
	"gretel/internal/trace"
)

// wireKinds is one message of every kind the Monitor emits for, as the
// deployment writes them: a correlated REST exchange, then a call, its
// failed reply and a cast on the deliver leg.
func wireKinds(t *testing.T) (req, resp, call, reply, cast []byte) {
	t.Helper()
	r := &rest.Request{Method: "PUT", Path: "/v2/images/6f1c3b2a-99aa-4b1c-8d77-aabbccddeeff/file", Body: []byte(`{}`)}
	r.Header.Set("Host", "glance")
	r.Header.Set("X-Openstack-Request-Id", "req-0123456789abcdef")
	w := &rest.Response{Status: 201, Body: []byte(`{"glance": {"status": "ok"}}`)}
	w.Header.Set("X-Openstack-Request-Id", "req-0123456789abcdef")
	rpc := func(key string, env amqp.Envelope) []byte {
		raw, err := amqp.Marshal(&amqp.Message{MethodID: amqp.BasicDeliver, Exchange: "nova", RoutingKey: key, Envelope: env})
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	return rest.MarshalRequest(r), rest.MarshalResponse(w),
		rpc("compute.compute-1", amqp.Envelope{MsgID: "msg-0000000001", ReqID: "req-1", ReplyTo: "reply_nova",
			Method: "build_and_run_instance", Args: json.RawMessage(`{"image":{"id":"1"},"tags":["a","}"]}`)}),
		rpc("reply_nova", amqp.Envelope{MsgID: "msg-0000000001", ReqID: "req-1", Failure: "RemoteError: no valid host"}),
		rpc("topic.nova", amqp.Envelope{MsgID: "msg-0000000002", Method: "report_state", Args: json.RawMessage(`{}`)})
}

// One stream carrying every message kind, fed split at every byte
// offset and pipelined in a single packet, must yield exactly the
// events of the message-per-packet run.
func TestMonitorSplitAtEveryOffset(t *testing.T) {
	req, resp, call, reply, cast := wireKinds(t)
	msgs := [][]byte{req, resp, call, reply, cast}
	stream := bytes.Join(msgs, nil)
	run := func(chunks ...[]byte) []trace.Event {
		events, sink := collect()
		m := NewMonitor("n1", sink, nil)
		for _, c := range chunks {
			m.HandlePacket(pkt(1, "10.0.0.1:1", "10.0.0.2:9292", c))
		}
		if len(m.streams) != 0 {
			t.Fatalf("%d streams still held after a whole number of messages", len(m.streams))
		}
		if m.Parsed != uint64(len(msgs)) || m.ParseErrors != 0 {
			t.Fatalf("parsed=%d errors=%d", m.Parsed, m.ParseErrors)
		}
		return *events
	}
	want := run(msgs...)
	if len(want) != len(msgs) || want[3].ErrorText != "RemoteError: no valid host" || want[3].API != want[2].API {
		t.Fatalf("unsplit run: %+v", want)
	}
	if got := run(stream); !reflect.DeepEqual(got, want) {
		t.Fatalf("pipelined in one packet:\n got %+v\nwant %+v", got, want)
	}
	for i := 1; i < len(stream); i++ {
		if got := run(stream[:i], stream[i:]); !reflect.DeepEqual(got, want) {
			t.Fatalf("split at %d:\n got %+v\nwant %+v", i, got, want)
		}
	}
	var bytewise [][]byte
	for i := range stream {
		bytewise = append(bytewise, stream[i:i+1])
	}
	if got := run(bytewise...); !reflect.DeepEqual(got, want) {
		t.Fatalf("one byte per packet:\n got %+v\nwant %+v", got, want)
	}
}

// Taps must not retain the payload (the bytes are the fabric's):
// scribbling over it once HandlePacket has returned — mid-message too —
// changes neither a delivered event nor what is still to be parsed.
func TestMonitorEventsOwnTheirStrings(t *testing.T) {
	req, resp, call, reply, cast := wireKinds(t)
	stream := bytes.Join([][]byte{req, resp, call, reply, cast}, nil)
	events, sink := collect()
	m := NewMonitor("n1", sink, nil)
	m.HandlePacket(pkt(1, "10.0.0.1:1", "10.0.0.2:9292", bytes.Clone(stream)))
	want := fmt.Sprintf("%+v", *events)

	*events = nil
	m = NewMonitor("n1", sink, nil)
	for _, cut := range [][2]int{{0, len(req) + 10}, {len(req) + 10, len(stream) - 7}, {len(stream) - 7, len(stream)}} {
		payload := bytes.Clone(stream[cut[0]:cut[1]])
		m.HandlePacket(pkt(1, "10.0.0.1:1", "10.0.0.2:9292", payload))
		for i := range payload {
			payload[i] = 'X'
		}
	}
	if got := fmt.Sprintf("%+v", *events); got != want {
		t.Fatalf("events changed when the payload was overwritten:\n got %s\nwant %s", got, want)
	}
}

// The per-message allocation budget on a warmed Monitor: the strings the
// event keeps (CorrID; MsgID and CorrID) and nothing else.
func TestMonitorAllocBudget(t *testing.T) {
	req, resp, call, _, cast := wireKinds(t)
	publish := bytes.Clone(call)
	publish[10] = byte(amqp.BasicPublish) // the method id's low byte, after the 7-byte frame header and the class
	okReply, err := amqp.Marshal(&amqp.Message{MethodID: amqp.BasicDeliver, RoutingKey: "reply_nova",
		Envelope: amqp.Envelope{MsgID: "msg-0000000001", ReqID: "req-1", Result: json.RawMessage(`{}`)}})
	if err != nil {
		t.Fatal(err)
	}
	m := NewMonitor("n1", func(trace.Event) {}, nil)
	m.Emit = OwnerPolicy("dst-node")
	for _, c := range []struct {
		name    string
		payload []byte
		src     string
		budget  float64
	}{
		{"REST request", req, "10.0.0.1:1", 1},
		{"REST response", resp, "10.0.0.2:9292", 1},
		{"RPC call", call, "10.0.0.2:5672", 2},
		{"RPC reply", okReply, "10.0.0.2:5672", 2},
		{"RPC cast", cast, "10.0.0.2:5672", 2},
		{"publish leg", publish, "10.0.0.1:1", 0},
		{"MySQL packet", []byte("\x03SELECT 1"), "10.0.0.1:3306", 0},
	} {
		p := pkt(1, c.src, "10.0.0.3:2", c.payload)
		m.HandlePacket(p) // warm: intern table, scratch, pending maps
		parsed := m.Parsed
		if got := testing.AllocsPerRun(200, func() { m.HandlePacket(p) }); got > c.budget {
			t.Errorf("%s: %v allocations per packet, budget %v", c.name, got, c.budget)
		}
		if c.budget > 0 && m.Parsed == parsed {
			t.Errorf("%s: not parsed", c.name)
		}
		// The same budget when no two packets share a peer endpoint.
		peers := make([]string, 202)
		for i := range peers {
			peers[i] = fmt.Sprintf("10.0.%d.%d:%d", 1+i/250, 1+i%250, 32768+i)
		}
		i := 0
		if got := testing.AllocsPerRun(len(peers)-2, func() {
			p.DstAddr = peers[i]
			i++
			m.HandlePacket(p)
		}); got > c.budget {
			t.Errorf("%s: %v allocations per packet from distinct peers, budget %v", c.name, got, c.budget)
		}
	}
	if m.ParseErrors != 0 {
		t.Fatalf("parse errors = %d", m.ParseErrors)
	}
}

// faultEvery fails every nth step of the deployment, REST and RPC alike.
type faultEvery struct{ n, calls int }

func (f *faultEvery) Outcome(*openstack.Instance, int, openstack.Step, *cluster.Node, *cluster.Node) openstack.Outcome {
	if f.calls++; f.calls%f.n == 0 {
		return openstack.Outcome{Status: 500, ErrText: "Internal Server Error: injected fault"}
	}
	return openstack.Outcome{}
}

// A seeded deployment — correlation ids on, heartbeats, retries, one
// step in 23 failed — tapped by the Monitor and by the reference Monitor
// must emit the same events, field for field.
func TestMonitorMatchesReference(t *testing.T) {
	d := openstack.NewDeployment(openstack.Config{
		Seed: 14, HeartbeatPeriod: 10 * time.Second, CorrelationIDs: true, RetryProb: 0.08,
	})
	d.Injector = &faultEvery{n: 23}
	got, sink := collect()
	want, refSink := collect()
	mon := NewMonitor("analyzer", sink, d.GroundTruth)
	ref := newRefMonitor("analyzer", refSink, d.GroundTruth)
	d.Fabric.Tap(mon.HandlePacket)
	d.Fabric.Tap(ref.HandlePacket)
	for round := 0; round < 4; round++ {
		for _, op := range openstack.CoreOperations() {
			d.Start(op, nil)
		}
	}
	d.Sim.RunUntil(d.Sim.Now().Add(10 * time.Minute))

	kinds, faulty := map[trace.EventType]int{}, 0
	for _, ev := range *want {
		kinds[ev.Type]++
		if ev.Faulty() {
			faulty++
		}
	}
	if len(*want) < 1000 || len(kinds) != 5 || faulty == 0 {
		t.Fatalf("reference run too thin to compare: %d events, kinds %v, %d faulty", len(*want), kinds, faulty)
	}
	if len(*got) != len(*want) {
		t.Fatalf("%d events, reference %d", len(*got), len(*want))
	}
	for i := range *want {
		if (*got)[i] != (*want)[i] {
			t.Fatalf("event %d:\n got %+v\nwant %+v", i, (*got)[i], (*want)[i])
		}
	}
	if mon.Parsed != ref.Parsed || mon.ParseErrors != ref.ParseErrors || mon.Ignored != ref.Ignored || mon.Ignored == 0 {
		t.Fatalf("counters parsed/errors/ignored %d/%d/%d, reference %d/%d/%d",
			mon.Parsed, mon.ParseErrors, mon.Ignored, ref.Parsed, ref.ParseErrors, ref.Ignored)
	}
}

// A tapped Content-Length near MaxInt used to wrap the body bound and
// panic the agent; it is a message still waiting for its body.
func TestMonitorHugeContentLength(t *testing.T) {
	events, sink := collect()
	m := NewMonitor("n1", sink, nil)
	m.HandlePacket(pkt(30, "10.0.0.1:1", "10.0.0.2:8774", []byte("GET /x HTTP/1.1\r\nContent-Length: 9223372036854775807\r\n\r\nabc")))
	if len(*events) != 0 || m.ParseErrors != 0 || len(m.streams) != 1 {
		t.Fatalf("events=%d errors=%d streams=%d, want the message held", len(*events), m.ParseErrors, len(m.streams))
	}
}

// A peer that never completes a message cannot make the tap hold more
// than maxStreamBytes: past it the stream is abandoned, once, and the
// connection parses again from a clean start.
func TestMonitorCapsReassemblyBuffer(t *testing.T) {
	events, sink := collect()
	m := NewMonitor("n1", sink, nil)
	chunk := bytes.Repeat([]byte("X-Filler: never a blank line\r\n"), 1024)
	m.HandlePacket(pkt(31, "10.0.0.1:1", "10.0.0.2:8774", []byte("GET /x HTTP/1.1\r\n")))
	for sent := 0; sent <= maxStreamBytes; sent += len(chunk) {
		m.HandlePacket(pkt(31, "10.0.0.1:1", "10.0.0.2:8774", chunk))
		if held := len(m.streams[streamKey{31, "10.0.0.1:1"}]); held > maxStreamBytes {
			t.Fatalf("%d bytes held, cap is %d", held, maxStreamBytes)
		}
	}
	if m.ParseErrors != 1 || len(m.streams) != 0 {
		t.Fatalf("errors=%d streams=%d, want one abandoned stream and nothing held", m.ParseErrors, len(m.streams))
	}
	m.HandlePacket(pkt(31, "10.0.0.1:1", "10.0.0.2:8774", restReqBytes("GET", "/v2.1/servers", "nova")))
	if len(*events) != 1 {
		t.Fatalf("events = %d after the stream was abandoned, want 1", len(*events))
	}
}

// Requests that are never answered cannot grow the pending tables past
// maxPending; evictions are counted, and an evicted request's response
// falls back to the port-only classification.
func TestMonitorCapsPendingTables(t *testing.T) {
	events, sink := collect()
	m := NewMonitor("n1", sink, nil)
	evicted := mPendingEvicted.Value()
	req := restReqBytes("GET", "/v2.1/servers", "nova")
	_, _, call, _, _ := wireKinds(t)
	id := bytes.Index(call, []byte("msg-0000000001"))
	const n = maxPending + 10
	for i := 0; i < n; i++ {
		m.HandlePacket(pkt(uint64(1000+i), "10.0.0.1:1", "10.0.0.2:8774", req))
		copy(call[id:], fmt.Sprintf("msg-%010d", i))
		m.HandlePacket(pkt(1, "10.0.0.2:5672", "10.0.0.3:8775", call))
		rest, rpc := len(m.conns.young)+len(m.conns.old), len(m.calls.young)+len(m.calls.old)
		if rest > maxPending || rpc > maxPending {
			t.Fatalf("after %d requests: %d REST and %d RPC entries pending, cap %d", i+1, rest, rpc, maxPending)
		}
	}
	if got := mPendingEvicted.Value() - evicted; got != 2*maxPending/2 {
		t.Fatalf("agent.pending_evicted grew by %d, want %d (one generation per table)", got, 2*maxPending/2)
	}
	*events = nil
	resp := restRespBytes(200, `{}`)
	m.HandlePacket(pkt(1000, "10.0.0.2:8774", "10.0.0.1:1", resp))     // evicted
	m.HandlePacket(pkt(1000+n-1, "10.0.0.2:8774", "10.0.0.1:1", resp)) // recent
	if old, recent := (*events)[0], (*events)[1]; old.API != trace.RESTAPI(trace.SvcNova, "", "") ||
		recent.API != trace.RESTAPI(trace.SvcNova, "GET", "/v2.1/servers") {
		t.Fatalf("evicted response API %+v, recent %+v", old.API, recent.API)
	}
}
