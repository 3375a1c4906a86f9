package openstack

import (
	"fmt"

	"gretel/internal/trace"
)

// Step is one API invocation inside an operation: the caller service
// invokes the API's owning service. REST steps produce a request/response
// pair on the wire; RPC steps produce publish and deliver frames through
// the broker (plus a reply unless Cast).
type Step struct {
	API    trace.API
	Caller trace.Service
	// Cast marks fire-and-forget RPCs (no reply leg).
	Cast bool
	// Noise marks steps that are per-operation background (Keystone auth
	// preamble). They appear on the wire but must be pruned by GRETEL's
	// noise filter; they are not part of the operation's true fingerprint.
	Noise bool
	// Optional gives the probability this step is SKIPPED in a given
	// execution — the asynchronous/conditional calls of §8 limitation 6
	// that branch an operation's fingerprint. Zero means the step always
	// runs.
	Optional float64
}

// Operation is one high-level administrative task type: a named, ordered
// sequence of API invocations (a Tempest test in the paper's terms, §7.1).
type Operation struct {
	Name     string
	Category Category
	Steps    []Step
}

// APIs returns the non-noise API sequence — the ground-truth fingerprint
// the learner should recover.
func (o *Operation) APIs() []trace.API {
	out := make([]trace.API, 0, len(o.Steps))
	for _, s := range o.Steps {
		if !s.Noise {
			out = append(out, s.API)
		}
	}
	return out
}

// FingerprintLen reports the ground-truth fingerprint length, optionally
// excluding RPC symbols (Table 1's "w/ RPC" vs "w/o RPC" columns).
func (o *Operation) FingerprintLen(withRPC bool) int {
	n := 0
	for _, s := range o.Steps {
		if s.Noise {
			continue
		}
		if !withRPC && s.API.Kind == trace.RPC {
			continue
		}
		n++
	}
	return n
}

// Services returns the distinct services participating in the operation,
// in first-touch order. RCA maps these to deployment nodes.
func (o *Operation) Services() []trace.Service {
	seen := make(map[trace.Service]bool)
	var out []trace.Service
	add := func(s trace.Service) {
		if s != trace.SvcUnknown && !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	for _, s := range o.Steps {
		add(s.Caller)
		add(s.API.Service)
	}
	return out
}

// String implements fmt.Stringer.
func (o *Operation) String() string {
	return fmt.Sprintf("%s[%s, %d steps]", o.Name, o.Category, len(o.Steps))
}

// withAuth prepends the standard Keystone auth preamble every CLI/dashboard
// task performs. These are wire-visible noise.
func withAuth(caller trace.Service, steps []Step) []Step {
	pre := []Step{
		{API: AuthAPIs[0], Caller: caller, Noise: true},
		{API: AuthAPIs[1], Caller: caller, Noise: true},
	}
	return append(pre, steps...)
}

func restStep(caller trace.Service, svc trace.Service, method, path string) Step {
	return Step{API: trace.RESTAPI(svc, method, path), Caller: caller}
}

func rpcStep(caller trace.Service, svc trace.Service, method string) Step {
	return Step{API: trace.RPCAPI(svc, method), Caller: caller}
}

func castStep(caller trace.Service, svc trace.Service, method string) Step {
	return Step{API: trace.RPCAPI(svc, method), Caller: caller, Cast: true}
}

// OpVMCreate reproduces the §2.1 "launch a new VM" workflow (Fig 2): the
// paper's canonical example with 7 REST and 3 RPC fingerprint entries.
func OpVMCreate() *Operation {
	h, n, nc, g, q := trace.SvcHorizon, trace.SvcNova, trace.SvcNovaCompute, trace.SvcGlance, trace.SvcNeutron
	steps := withAuth(h, []Step{
		// (1) Horizon POSTs to Nova to create the VM.
		restStep(h, n, "POST", "/v2.1/servers"),
		// (2) Control migrates to nova-compute via RPC.
		rpcStep(n, n, "select_destinations"),
		rpcStep(n, nc, "build_and_run_instance"),
		// (3) Nova fetches the image from Glance.
		restStep(n, g, "GET", "/v2/images/{id}"),
		// (4) Nova queries Neutron for network/port/security bindings.
		restStep(n, q, "GET", "/v2.0/networks.json"),
		restStep(n, q, "GET", "/v2.0/ports.json"),
		restStep(n, q, "GET", "/v2.0/security-groups.json"),
		// (5) Nova asks Neutron to create and attach a port.
		restStep(n, q, "POST", "/v2.0/ports.json"),
		restStep(n, q, "PUT", "/v2.0/ports/{id}"),
		// (6) Neutron plumbs the virtual interface via its L2 agent.
		rpcStep(q, trace.SvcNeutronAgent, "port_update"),
		// (7) Neutron calls back to Nova when the port is attached.
		restStep(q, n, "POST", "/v2.1/os-server-external-events"),
		// (8) Dashboard polls the boot result.
		restStep(h, n, "GET", "/v2.1/servers/{id}"),
	})
	return &Operation{Name: "vm-create", Category: Compute, Steps: steps}
}

// OpVMDelete tears an instance down.
func OpVMDelete() *Operation {
	h, n, nc, q := trace.SvcHorizon, trace.SvcNova, trace.SvcNovaCompute, trace.SvcNeutron
	steps := withAuth(h, []Step{
		restStep(h, n, "GET", "/v2.1/servers/{id}"),
		restStep(h, n, "DELETE", "/v2.1/servers/{id}"),
		rpcStep(n, nc, "terminate_instance"),
		restStep(n, q, "GET", "/v2.0/ports.json"),
		restStep(n, q, "DELETE", "/v2.0/ports/{id}"),
		rpcStep(q, trace.SvcNeutronAgent, "port_delete"),
		// Conductor bookkeeping is fire-and-forget.
		castStep(n, n, "instance_update"),
	})
	return &Operation{Name: "vm-delete", Category: Compute, Steps: steps}
}

// OpVolumeCreate is S2 from §4: create a volume.
func OpVolumeCreate() *Operation {
	h, c := trace.SvcHorizon, trace.SvcCinder
	steps := withAuth(h, []Step{
		restStep(h, c, "POST", "/v2/volumes"),
		rpcStep(c, c, "create_volume"),
		restStep(h, c, "GET", "/v2/volumes/{id}"),
	})
	return &Operation{Name: "volume-create", Category: Storage, Steps: steps}
}

// OpVMSnapshot is S1 from §4: snapshot a VM. Per the paper it subsumes
// volume creation, preceded and succeeded by additional compute steps.
func OpVMSnapshot() *Operation {
	h, n, nc, c, g := trace.SvcHorizon, trace.SvcNova, trace.SvcNovaCompute, trace.SvcCinder, trace.SvcGlance
	steps := withAuth(h, []Step{
		restStep(h, n, "GET", "/v2.1/servers/{id}"),
		restStep(h, n, "POST", "/v2.1/servers/{id}/action/createImage"),
		rpcStep(n, nc, "snapshot_instance"),
		// Subsumed volume-create body.
		restStep(h, c, "POST", "/v2/volumes"),
		rpcStep(c, c, "create_volume"),
		restStep(h, c, "GET", "/v2/volumes/{id}"),
		// Snapshot upload to Glance.
		restStep(n, g, "POST", "/v2/images"),
		restStep(n, g, "PUT", "/v2/images/{id}/file"),
		restStep(h, n, "GET", "/v2.1/servers/{id}"),
	})
	return &Operation{Name: "vm-snapshot", Category: Compute, Steps: steps}
}

// OpImageUpload is the §7.2.1 case-study operation: upload a VM image via
// Horizon, which PUTs the image file to Glance.
func OpImageUpload() *Operation {
	h, g := trace.SvcHorizon, trace.SvcGlance
	steps := withAuth(h, []Step{
		restStep(h, g, "POST", "/v2/images"),
		restStep(h, g, "PUT", "/v2/images/{id}/file"),
		restStep(h, g, "GET", "/v2/images/{id}"),
	})
	return &Operation{Name: "image-upload", Category: Image, Steps: steps}
}

// OpCinderList is the §7.2.4 case-study operation: `cinder list` on the
// controller, which first authenticates against Keystone. The auth calls
// here are the operation itself, not noise — but they are still Keystone
// calls that the fingerprint filter prunes, which is exactly why the
// paper's RCA had to look at software dependencies to find the stopped
// NTP agent.
func OpCinderList() *Operation {
	h, c, k := trace.SvcHorizon, trace.SvcCinder, trace.SvcKeystone
	steps := withAuth(h, []Step{
		restStep(h, c, "GET", "/v2/volumes/detail"),
		// Cinder validates the caller's token against Keystone — the
		// call that fails with 401 when the Cinder host's clock drifts
		// (stopped NTP).
		{API: trace.RESTAPI(k, "GET", "/v3/auth/tokens"), Caller: c, Noise: true},
		restStep(h, c, "GET", "/v2/volumes"),
	})
	return &Operation{Name: "cinder-list", Category: Storage, Steps: steps}
}

// OpNetworkCreate creates a network with a subnet.
func OpNetworkCreate() *Operation {
	h, q := trace.SvcHorizon, trace.SvcNeutron
	steps := withAuth(h, []Step{
		restStep(h, q, "POST", "/v2.0/networks"),
		restStep(h, q, "POST", "/v2.0/subnets.json"),
		rpcStep(q, trace.SvcNeutronAgent, "network_delete"), // dhcp reconfigure analogue
		restStep(h, q, "GET", "/v2.0/networks/{id}"),
	})
	return &Operation{Name: "network-create", Category: Network, Steps: steps}
}

// OpRouterCreate creates a router and attaches an interface.
func OpRouterCreate() *Operation {
	h, q := trace.SvcHorizon, trace.SvcNeutron
	steps := withAuth(h, []Step{
		restStep(h, q, "POST", "/v2.0/routers"),
		restStep(h, q, "PUT", "/v2.0/routers/{id}/add_router_interface"),
		rpcStep(q, q, "sync_routers"),
		restStep(h, q, "GET", "/v2.0/routers/{id}"),
	})
	return &Operation{Name: "router-create", Category: Network, Steps: steps}
}

// OpVMMigrate live-migrates an instance between compute hosts.
func OpVMMigrate() *Operation {
	h, n, nc := trace.SvcHorizon, trace.SvcNova, trace.SvcNovaCompute
	steps := withAuth(h, []Step{
		restStep(h, n, "GET", "/v2.1/servers/{id}"),
		restStep(h, n, "POST", "/v2.1/servers/{id}/action/os-migrateLive"),
		rpcStep(n, n, "select_destinations"),
		rpcStep(n, nc, "check_can_live_migrate_destination"),
		rpcStep(n, nc, "pre_live_migration"),
		rpcStep(n, nc, "live_migration"),
		rpcStep(n, nc, "post_live_migration_at_destination"),
		restStep(n, trace.SvcNeutron, "PUT", "/v2.0/ports/{id}"),
		rpcStep(trace.SvcNeutron, trace.SvcNeutronAgent, "port_update"),
		restStep(h, n, "GET", "/v2.1/servers/{id}"),
	})
	return &Operation{Name: "vm-migrate", Category: Compute, Steps: steps}
}

// OpVMResize resizes an instance through the prep/finish/confirm dance.
func OpVMResize() *Operation {
	h, n, nc := trace.SvcHorizon, trace.SvcNova, trace.SvcNovaCompute
	steps := withAuth(h, []Step{
		restStep(h, n, "GET", "/v2.1/flavors"),
		restStep(h, n, "POST", "/v2.1/servers/{id}/action/resize"),
		rpcStep(n, n, "select_destinations"),
		rpcStep(n, nc, "prep_resize"),
		rpcStep(n, nc, "resize_instance"),
		rpcStep(n, nc, "finish_resize"),
		restStep(h, n, "POST", "/v2.1/servers/{id}/action/confirmResize"),
		rpcStep(n, nc, "confirm_resize"),
		restStep(h, n, "GET", "/v2.1/servers/{id}"),
	})
	return &Operation{Name: "vm-resize", Category: Compute, Steps: steps}
}

// OpVolumeAttach attaches a Cinder volume to a running instance —
// Nova and Cinder cooperating through both REST and RPC.
func OpVolumeAttach() *Operation {
	h, n, nc, c := trace.SvcHorizon, trace.SvcNova, trace.SvcNovaCompute, trace.SvcCinder
	steps := withAuth(h, []Step{
		restStep(h, c, "GET", "/v2/volumes/{id}"),
		restStep(h, n, "POST", "/v2.1/os-volume_attachments"),
		rpcStep(c, c, "initialize_connection"),
		rpcStep(n, nc, "attach_volume"),
		rpcStep(c, c, "attach_volume"),
		restStep(n, c, "POST", "/v2/volumes/{id}/action/os-attach"),
		restStep(h, c, "GET", "/v2/volumes/{id}"),
	})
	return &Operation{Name: "volume-attach", Category: Storage, Steps: steps}
}

// OpFloatingIPAssociate allocates a floating IP and binds it to a port.
func OpFloatingIPAssociate() *Operation {
	h, q, n := trace.SvcHorizon, trace.SvcNeutron, trace.SvcNova
	steps := withAuth(h, []Step{
		restStep(h, q, "GET", "/v2.0/floatingips.json"),
		restStep(h, q, "POST", "/v2.0/floatingips"),
		restStep(h, q, "GET", "/v2.0/ports.json"),
		restStep(h, q, "PUT", "/v2.0/floatingips/{id}"),
		rpcStep(q, q, "update_floatingip_statuses"),
		restStep(h, n, "GET", "/v2.1/servers/{id}"),
	})
	return &Operation{Name: "floatingip-associate", Category: Network, Steps: steps}
}

// OpSecurityGroupCreate creates a security group with one rule and
// propagates it to the L2 agents.
func OpSecurityGroupCreate() *Operation {
	h, q := trace.SvcHorizon, trace.SvcNeutron
	steps := withAuth(h, []Step{
		restStep(h, q, "POST", "/v2.0/security-groups"),
		restStep(h, q, "POST", "/v2.0/security-group-rules.json"),
		rpcStep(q, trace.SvcNeutronAgent, "security_groups_rule_updated"),
		restStep(h, q, "GET", "/v2.0/security-groups.json"),
	})
	return &Operation{Name: "security-group-create", Category: Network, Steps: steps}
}

// RelayAPI returns the status-poll REST API through which errors in a
// category's RPC invocations surface at the dashboard/CLI (§5.3.1
// "Improving precision": "Errors manifesting in RPC invocations are
// typically communicated back to the dashboard or CLI via REST calls").
// When an operation fails inside an RPC, the deployment issues this GET,
// which returns the error to Horizon.
func RelayAPI(cat Category) trace.API {
	switch cat {
	case Compute:
		return trace.RESTAPI(trace.SvcNova, "GET", "/v2.1/servers/{id}")
	case Image:
		return trace.RESTAPI(trace.SvcGlance, "GET", "/v2/images/{id}")
	case Network:
		return trace.RESTAPI(trace.SvcNeutron, "GET", "/v2.0/networks/{id}")
	case Storage:
		return trace.RESTAPI(trace.SvcCinder, "GET", "/v2/volumes/{id}")
	default:
		return trace.RESTAPI(trace.SvcNova, "GET", "/v2.1/os-services/detail")
	}
}

// CoreOperations lists the hand-written workflows used by the case
// studies; the Tempest catalog generates the remaining 1200-odd tests
// around templates derived from these.
func CoreOperations() []*Operation {
	return []*Operation{
		OpVMCreate(), OpVMDelete(), OpVMSnapshot(), OpVMMigrate(), OpVMResize(),
		OpVolumeCreate(), OpVolumeAttach(), OpImageUpload(), OpCinderList(),
		OpNetworkCreate(), OpRouterCreate(), OpFloatingIPAssociate(),
		OpSecurityGroupCreate(),
	}
}
