// Package trace defines the shared event model for GRETEL: API identities
// for OpenStack REST and RPC interfaces, and the network events the
// monitoring agents extract from the wire and stream to the analyzer.
//
// The model mirrors what the paper's Bro-based agents could observe without
// parsing JSON payloads: the API invoked, the endpoints, HTTP status or RPC
// error markers, timestamps, and the connection/message identifiers used to
// pair requests with responses.
package trace

import (
	"fmt"
	"net/netip"
	"time"
)

// Service identifies an OpenStack component (or supporting dependency) that
// terminates REST calls or sends/receives RPCs.
type Service uint8

// OpenStack services and supporting infrastructure from Fig. 1 of the paper.
const (
	SvcUnknown Service = iota
	SvcHorizon
	SvcKeystone
	SvcNova        // Nova controller (nova-api, nova-scheduler, nova-conductor)
	SvcNovaCompute // nova-compute agents on compute nodes
	SvcNeutron
	SvcNeutronAgent // L2/L3/DHCP agents on compute/network nodes
	SvcGlance
	SvcCinder
	SvcSwift
	SvcRabbitMQ
	SvcMySQL
	numServices
)

var serviceNames = [...]string{
	SvcUnknown:      "unknown",
	SvcHorizon:      "horizon",
	SvcKeystone:     "keystone",
	SvcNova:         "nova",
	SvcNovaCompute:  "nova-compute",
	SvcNeutron:      "neutron",
	SvcNeutronAgent: "neutron-agent",
	SvcGlance:       "glance",
	SvcCinder:       "cinder",
	SvcSwift:        "swift",
	SvcRabbitMQ:     "rabbitmq",
	SvcMySQL:        "mysql",
}

// String returns the lowercase service name used in URIs and logs.
func (s Service) String() string {
	if int(s) < len(serviceNames) {
		return serviceNames[s]
	}
	return fmt.Sprintf("service(%d)", uint8(s))
}

// ServiceByName resolves a service from its lowercase name; SvcUnknown
// for unrecognized names.
func ServiceByName(name string) Service {
	for s := SvcHorizon; s < numServices; s++ {
		if serviceNames[s] == name {
			return s
		}
	}
	return SvcUnknown
}

// Services lists every real service value (excluding SvcUnknown).
func Services() []Service {
	out := make([]Service, 0, numServices-1)
	for s := SvcHorizon; s < numServices; s++ {
		out = append(out, s)
	}
	return out
}

// Kind distinguishes the two OpenStack communication styles: inter-service
// REST over HTTP, and intra-service RPC routed through the RabbitMQ broker.
type Kind uint8

const (
	// REST is an HTTP request/response between two services.
	REST Kind = iota + 1
	// RPC is an oslo.messaging invocation via the broker.
	RPC
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case REST:
		return "REST"
	case RPC:
		return "RPC"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// API identifies one OpenStack API interface: a REST (method, URI template)
// pair on a service, or an RPC method on a service's topic. API values are
// comparable and are the unit the symbol table maps to single runes.
type API struct {
	Service Service
	Kind    Kind
	// Method is the HTTP verb for REST APIs ("GET", "POST", "PUT",
	// "DELETE") or the RPC method name (e.g. "build_and_run_instance").
	Method string
	// Path is the normalized URI template for REST APIs (identifiers
	// replaced by placeholders, e.g. "/v2.1/servers/{id}"). Empty for RPC.
	Path string
}

// RESTAPI builds a REST API identity.
func RESTAPI(svc Service, method, path string) API {
	return API{Service: svc, Kind: REST, Method: method, Path: path}
}

// RPCAPI builds an RPC API identity.
func RPCAPI(svc Service, method string) API {
	return API{Service: svc, Kind: RPC, Method: method}
}

// Zero reports whether the API is the zero value.
func (a API) Zero() bool { return a == API{} }

// StateChanging reports whether the API mutates system state. Per the
// paper (§5.3.1), REST POST/PUT/DELETE and all RPCs are state-changing;
// these symbols are matched as mandatory literals while read-only symbols
// are optional in the relaxed fingerprint match.
func (a API) StateChanging() bool {
	if a.Kind == RPC {
		return true
	}
	switch a.Method {
	case "POST", "PUT", "DELETE", "PATCH":
		return true
	}
	return false
}

// String renders the API in a compact, human-readable form such as
// "nova REST POST /v2.1/servers" or "nova-compute RPC build_and_run_instance".
func (a API) String() string {
	if a.Kind == RPC {
		return fmt.Sprintf("%s RPC %s", a.Service, a.Method)
	}
	return fmt.Sprintf("%s REST %s %s", a.Service, a.Method, a.Path)
}

// EventType describes the direction/shape of a captured message.
type EventType uint8

const (
	// RESTRequest is an HTTP request observed on the wire.
	RESTRequest EventType = iota + 1
	// RESTResponse is an HTTP response observed on the wire.
	RESTResponse
	// RPCCall is a broker-routed RPC expecting a reply.
	RPCCall
	// RPCReply is the reply to an RPCCall, paired by message id.
	RPCReply
	// RPCCast is a fire-and-forget RPC (no reply expected).
	RPCCast
)

// String implements fmt.Stringer.
func (t EventType) String() string {
	switch t {
	case RESTRequest:
		return "REST-req"
	case RESTResponse:
		return "REST-resp"
	case RPCCall:
		return "RPC-call"
	case RPCReply:
		return "RPC-reply"
	case RPCCast:
		return "RPC-cast"
	default:
		return fmt.Sprintf("event(%d)", uint8(t))
	}
}

// Request reports whether the event initiates an exchange (REST request,
// RPC call or cast) as opposed to completing one.
func (t EventType) Request() bool {
	return t == RESTRequest || t == RPCCall || t == RPCCast
}

// Event is one REST or RPC message as reconstructed by a monitoring agent
// from raw wire bytes. It carries only header-level metadata — GRETEL never
// parses JSON payloads (§5.3) — plus, for evaluation only, the ground-truth
// operation identity used to score precision.
type Event struct {
	// Seq is a receiver-assigned monotonically increasing sequence number.
	Seq uint64
	// Time is the capture timestamp (virtual time inside the simulation).
	Time time.Time
	// Type is the message shape.
	Type EventType
	// API identifies the invoked interface.
	API API
	// SrcNode and DstNode are deployment node names (one service per node
	// in the reference deployment, §5.4 "Improving precision").
	SrcNode, DstNode string
	// SrcAddr and DstAddr are the endpoints from the wire, zone-less;
	// the zero value when the capture had none. As text and in JSON they
	// are "ip:port", the zero value "".
	SrcAddr, DstAddr netip.AddrPort
	// ConnID identifies the TCP connection (REST pairing key).
	ConnID uint64
	// MsgID is the oslo.messaging message id (RPC pairing key).
	MsgID string
	// CorrID is the per-operation correlation identifier
	// (X-Openstack-Request-Id), when the deployment emits one — the
	// extension §5.3.1 anticipates. Empty otherwise.
	CorrID string
	// Status is the HTTP status code on RESTResponse events, or an
	// RPC error indicator (0 ok, nonzero fault class) on RPCReply events.
	Status int
	// ErrorText is the error excerpt the agent's regular-expression scan
	// found in the raw message, empty when the message is healthy.
	ErrorText string
	// WireBytes is the encoded on-the-wire size of the message, used for
	// throughput accounting.
	WireBytes int

	// OpID and OpName are ground truth for evaluation: the high-level
	// administrative task instance this message belongs to. The detector
	// must never read these; they exist so experiments can score precision.
	OpID   uint64
	OpName string
}

// Faulty reports whether the event carries an operational error marker:
// an HTTP status >= 400 or a nonzero RPC error class.
func (e *Event) Faulty() bool {
	switch e.Type {
	case RESTResponse:
		return e.Status >= 400
	case RPCReply:
		return e.Status != 0
	}
	return false
}

// String renders a single-line summary of the event.
func (e *Event) String() string {
	return fmt.Sprintf("#%d %s %s %s->%s status=%d op=%s",
		e.Seq, e.Type, e.API, e.SrcNode, e.DstNode, e.Status, e.OpName)
}
