package fingerprint_test

import (
	"fmt"

	"gretel/internal/fingerprint"
	"gretel/internal/openstack"
	"gretel/internal/trace"
)

// Learn an operational fingerprint from repeated isolated executions:
// noise (auth, heartbeats) and transient retries drop out.
func ExampleLearn() {
	auth := trace.RESTAPI(trace.SvcKeystone, "POST", "/v3/auth/tokens")
	create := trace.RESTAPI(trace.SvcNova, "POST", "/v2.1/servers")
	build := trace.RPCAPI(trace.SvcNovaCompute, "build_and_run_instance")
	status := trace.RESTAPI(trace.SvcNova, "GET", "/v2.1/servers/{id}")
	transient := trace.RESTAPI(trace.SvcNova, "GET", "/v2.1/limits")

	run1 := []trace.API{auth, create, build, status}
	run2 := []trace.API{auth, create, transient, build, status} // one stray call
	run3 := []trace.API{auth, create, build, status, status}    // idempotent repeat

	nf := fingerprint.NewNoiseFilter(openstack.NoiseAPIs())
	for _, api := range fingerprint.Learn([][]trace.API{run1, run2, run3}, nf) {
		fmt.Println(api)
	}
	// Output:
	// nova REST POST /v2.1/servers
	// nova-compute RPC build_and_run_instance
	// nova REST GET /v2.1/servers/{id}
}

// Truncate a fingerprint at the offending API and match it against a
// snapshot under the relaxed (state-change order) semantics of §5.3.1.
func ExampleFingerprint_MatchRelaxed() {
	lib := fingerprint.NewLibrary()
	fp := lib.AddAPIs("vm-create", "Compute", []trace.API{
		trace.RESTAPI(trace.SvcNova, "POST", "/v2.1/servers"),
		trace.RESTAPI(trace.SvcGlance, "GET", "/v2/images/{id}"),
		trace.RESTAPI(trace.SvcNeutron, "POST", "/v2.0/ports.json"),
	})
	// The candidates for the failing API, each truncated at it.
	cands := lib.CandidatesForAPI(trace.RESTAPI(trace.SvcNeutron, "POST", "/v2.0/ports.json"))
	truncated := cands.Program(0, true, false)

	// Snapshot: the POST /servers and the failing POST /ports.json are in
	// the context buffer; the GET (read-only) was displaced by concurrent
	// traffic — the match still holds.
	snapshot := []rune{fp.Symbols[0], 'x', 'y', fp.Symbols[2]}
	fmt.Println(truncated.MatchRelaxed(fingerprint.NewIndex(snapshot)))
	// Out of order: no match.
	fmt.Println(truncated.MatchRelaxed(fingerprint.NewIndex([]rune{fp.Symbols[2], fp.Symbols[0]})))
	// Output:
	// true
	// false
}
