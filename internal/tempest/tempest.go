// Package tempest generates and runs the integration-test workload GRETEL
// learns from — the analogue of OpenStack's Tempest suite (§7.1).
//
// The catalog contains 1200 runnable tests in the paper's five categories
// with Table 1's category sizes (Compute 517, Image 55, Network 251,
// Storage 84, Misc 293). Each test is a distinct high-level operation:
// a category template (hand-written cores like VM create for a few,
// synthetic service workflows for the rest) extended with per-test
// variation segments drawn from the category's API pool. Fingerprint
// lengths are distributed around Table 1's per-category averages, with
// one 384-step Compute test providing the paper's FPmax.
package tempest

import (
	"fmt"
	"math/rand"
	"time"

	"gretel/internal/agent"
	"gretel/internal/fingerprint"
	"gretel/internal/openstack"
	"gretel/internal/trace"
)

// CategorySizes pins Table 1's test counts.
var CategorySizes = map[openstack.Category]int{
	openstack.Compute: 517,
	openstack.Image:   55,
	openstack.Network: 251,
	openstack.Storage: 84,
	openstack.Misc:    293,
}

// targetLens holds the desired mean fingerprint length (with RPC) and the
// approximate REST share per category, from Table 1's last columns.
var targetLens = map[openstack.Category]struct {
	mean      int
	restShare float64
}{
	openstack.Compute: {100, 0.56},
	openstack.Image:   {18, 15.0 / 18.0},
	openstack.Network: {31, 16.0 / 31.0},
	openstack.Storage: {17, 15.0 / 17.0},
	openstack.Misc:    {16, 11.0 / 16.0},
}

// FPMax is the paper's largest fingerprint size.
const FPMax = 384

// Test is one catalog entry.
type Test struct {
	Index int
	Op    *openstack.Operation
}

// Catalog is the full generated suite.
type Catalog struct {
	Tests      []*Test
	ByCategory map[openstack.Category][]*Test
	Pools      map[openstack.Category]*openstack.APIPool
}

// callerFor picks the client service initiating a category's REST calls.
func callerFor(cat openstack.Category) trace.Service {
	return trace.SvcHorizon // all admin tasks originate at the dashboard/CLI (§4)
}

// rpcCallerFor picks the controller that publishes a category's RPCs.
func rpcCallerFor(cat openstack.Category) trace.Service {
	switch cat {
	case openstack.Compute, openstack.Misc:
		return trace.SvcNova
	case openstack.Network:
		return trace.SvcNeutron
	case openstack.Image:
		return trace.SvcGlance
	default:
		return trace.SvcCinder
	}
}

// coreTemplates returns the hand-written operation cores reused as
// category templates. Catalog tests embed these cores so realistic
// workflows (VM create et al.) appear throughout the suite.
func coreTemplates(cat openstack.Category) []*openstack.Operation {
	switch cat {
	case openstack.Compute:
		return []*openstack.Operation{
			openstack.OpVMCreate(), openstack.OpVMDelete(), openstack.OpVMSnapshot(),
			openstack.OpVMMigrate(), openstack.OpVMResize(),
		}
	case openstack.Image:
		return []*openstack.Operation{openstack.OpImageUpload()}
	case openstack.Network:
		return []*openstack.Operation{
			openstack.OpNetworkCreate(), openstack.OpRouterCreate(),
			openstack.OpFloatingIPAssociate(), openstack.OpSecurityGroupCreate(),
		}
	case openstack.Storage:
		return []*openstack.Operation{
			openstack.OpVolumeCreate(), openstack.OpCinderList(), openstack.OpVolumeAttach(),
		}
	default:
		return nil
	}
}

// crossAPIs are the other-service APIs a category's composite operations
// legitimately touch; they create the small cross-category fingerprint
// overlap Fig 5 measures.
func crossAPIs(cat openstack.Category, pools map[openstack.Category]*openstack.APIPool) []trace.API {
	switch cat {
	case openstack.Compute:
		return []trace.API{
			trace.RESTAPI(trace.SvcGlance, "GET", "/v2/images/{id}"),
			trace.RESTAPI(trace.SvcNeutron, "GET", "/v2.0/ports.json"),
			trace.RESTAPI(trace.SvcNeutron, "POST", "/v2.0/ports.json"),
			trace.RESTAPI(trace.SvcCinder, "POST", "/v2/volumes"),
		}
	case openstack.Network:
		return []trace.API{
			trace.RESTAPI(trace.SvcNova, "GET", "/v2.1/servers/{id}"),
		}
	case openstack.Storage:
		return []trace.API{
			trace.RESTAPI(trace.SvcNova, "GET", "/v2.1/servers/{id}"),
			trace.RESTAPI(trace.SvcGlance, "GET", "/v2/images/{id}"),
		}
	default:
		return nil
	}
}

// NewCatalog deterministically generates the 1200-test suite from a seed.
func NewCatalog(seed int64) *Catalog {
	pools := openstack.Pools()
	c := &Catalog{
		ByCategory: make(map[openstack.Category][]*Test),
		Pools:      pools,
	}
	for _, cat := range openstack.Categories() {
		rng := rand.New(rand.NewSource(seed ^ int64(cat+1)*104729))
		n := CategorySizes[cat]
		templates := coreTemplates(cat)
		cross := crossAPIs(cat, pools)
		pool := pools[cat]
		// Round-robin cursors guarantee near-complete pool coverage.
		restCur, rpcCur := 0, 0
		for i := 0; i < n; i++ {
			op := buildTest(cat, i, rng, pool, templates, cross, &restCur, &rpcCur)
			t := &Test{Index: len(c.Tests), Op: op}
			c.Tests = append(c.Tests, t)
			c.ByCategory[cat] = append(c.ByCategory[cat], t)
		}
	}
	return c
}

// buildTest assembles one catalog operation: auth preamble, a variation
// prefix (per-test distinguishing state changes), a template core, and a
// variation suffix, sized to the category's length distribution.
func buildTest(cat openstack.Category, i int, rng *rand.Rand, pool *openstack.APIPool,
	templates []*openstack.Operation, cross []trace.API, restCur, rpcCur *int) *openstack.Operation {

	tl := targetLens[cat]
	// Triangular-ish distribution with mean ≈ tl.mean; Compute test 0 is
	// the FPmax=384 giant.
	target := tl.mean/2 + rng.Intn(tl.mean/2+1) + rng.Intn(tl.mean/2+1)
	if cat == openstack.Compute && i == 0 {
		target = FPMax
	}

	var core []openstack.Step
	name := fmt.Sprintf("%s-%04d", categorySlug(cat), i)
	if len(templates) > 0 {
		tmpl := templates[i%len(templates)]
		// Strip the template's own auth preamble (re-added below).
		for _, s := range tmpl.Steps {
			if !s.Noise {
				core = append(core, s)
			}
		}
		name = fmt.Sprintf("%s-%s-%04d", categorySlug(cat), tmpl.Name, i)
	}

	caller := callerFor(cat)
	rpcCaller := rpcCallerFor(cat)

	var crossStep *openstack.Step
	if len(cross) > 0 && rng.Float64() < 0.5 {
		a := cross[rng.Intn(len(cross))]
		s := mkStep(a, callerFor(cat), rpcCallerFor(cat), rng)
		crossStep = &s
	}

	// Every test ends with its category's status-poll GET — the call a
	// dashboard/CLI makes to confirm the result, and the API through which
	// RPC failures are relayed back (openstack.RelayAPI).
	relay := openstack.Step{API: openstack.RelayAPI(cat), Caller: callerFor(cat)}

	need := target - len(core) - 1
	if crossStep != nil {
		need--
	}
	if need < 4 {
		need = 4
	}
	nREST := int(float64(need) * tl.restShare)
	nRPC := need - nREST

	pick := func(apis []trace.API, cur *int, n int, stateChangers int) []openstack.Step {
		steps := make([]openstack.Step, 0, n)
		// First take per-test random state-change picks (distinguishers),
		// then round-robin the pool for coverage.
		taken := 0
		for attempts := 0; taken < stateChangers && attempts < 8*n+64; attempts++ {
			a := apis[rng.Intn(len(apis))]
			if a.StateChanging() {
				steps = append(steps, mkStep(a, caller, rpcCaller, rng))
				taken++
			}
		}
		for len(steps) < n {
			a := apis[*cur%len(apis)]
			*cur++
			steps = append(steps, mkStep(a, caller, rpcCaller, rng))
		}
		return steps
	}

	restSteps := pick(pool.REST, restCur, nREST, min(3, nREST))
	var rpcSteps []openstack.Step
	if len(pool.RPC) > 0 && nRPC > 0 {
		rpcSteps = pick(pool.RPC, rpcCur, nRPC, min(2, nRPC))
	}

	// Interleave REST and RPC variation steps deterministically, split
	// them around the core, and sprinkle the cross-service APIs.
	variation := interleave(restSteps, rpcSteps, rng)
	if crossStep != nil {
		variation = append(variation, *crossStep)
	}
	cut := len(variation) / 2
	steps := make([]openstack.Step, 0, len(variation)+len(core)+2)
	steps = append(steps, openstack.Step{API: openstack.AuthAPIs[0], Caller: caller, Noise: true})
	steps = append(steps, openstack.Step{API: openstack.AuthAPIs[1], Caller: caller, Noise: true})
	steps = append(steps, variation[:cut]...)
	steps = append(steps, core...)
	steps = append(steps, variation[cut:]...)
	steps = append(steps, relay)

	return &openstack.Operation{Name: name, Category: cat, Steps: normalizeSteps(steps)}
}

// normalizeSteps removes adjacent duplicate idempotent (GET/HEAD) steps.
// On the wire such repeats are indistinguishable from transient retries,
// and the fingerprint noise filter rightly collapses them — so the
// catalog's ground truth must not contain them either.
func normalizeSteps(steps []openstack.Step) []openstack.Step {
	out := steps[:0]
	lastReal := -1
	for _, s := range steps {
		if !s.Noise && lastReal >= 0 {
			prev := out[lastReal]
			if s.API == prev.API && (s.API.Method == "GET" || s.API.Method == "HEAD") {
				continue
			}
		}
		out = append(out, s)
		if !s.Noise {
			lastReal = len(out) - 1
		}
	}
	return out
}

func mkStep(a trace.API, caller, rpcCaller trace.Service, rng *rand.Rand) openstack.Step {
	if a.Kind == trace.RPC {
		return openstack.Step{API: a, Caller: rpcCaller, Cast: rng.Float64() < 0.2}
	}
	return openstack.Step{API: a, Caller: caller}
}

func interleave(a, b []openstack.Step, rng *rand.Rand) []openstack.Step {
	out := make([]openstack.Step, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		takeA := j >= len(b) || (i < len(a) && rng.Float64() < float64(len(a)-i)/float64(len(a)-i+len(b)-j))
		if takeA {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	return out
}

func categorySlug(cat openstack.Category) string {
	switch cat {
	case openstack.Compute:
		return "compute"
	case openstack.Image:
		return "image"
	case openstack.Network:
		return "network"
	case openstack.Storage:
		return "storage"
	default:
		return "misc"
	}
}

// SustainPool keeps n uniformly drawn catalog tests executing
// concurrently on the deployment, restarting a new test whenever one
// completes. It returns a stop function; after stop, running instances
// drain but no new ones start. The uniform draw over the catalog is
// proportional to the suite's category distribution (§7.3).
func SustainPool(d *openstack.Deployment, c *Catalog, n int, rng *rand.Rand) (stop func()) {
	stopped := false
	var restart func(*openstack.Instance)
	restart = func(*openstack.Instance) {
		if stopped {
			return
		}
		d.Start(c.Tests[rng.Intn(len(c.Tests))].Op, restart)
	}
	for i := 0; i < n; i++ {
		d.Start(c.Tests[rng.Intn(len(c.Tests))].Op, restart)
	}
	return func() { stopped = true }
}

// RunStats aggregates event counts across learning runs — the Events
// columns of Table 1.
type RunStats struct {
	RESTEvents uint64
	RPCEvents  uint64
}

// RunIsolated executes one test alone on a fresh deployment (heartbeats
// on, per the controlled learning setting) and returns the request-side
// API sequence the monitoring agent captured, plus event counts.
func RunIsolated(test *Test, runSeed int64, stats *RunStats) []trace.API {
	d := openstack.NewDeployment(openstack.Config{
		Seed:            runSeed,
		HeartbeatPeriod: 10 * time.Second,
		// Learning runs compress think time: the controlled setting has
		// no competing load, so pacing only stretches simulated time.
		ThinkMin:  300 * time.Millisecond,
		ThinkMax:  1500 * time.Millisecond,
		RetryProb: 0.08,
	})
	var apis []trace.API
	mon := agent.NewMonitor("learner", func(ev trace.Event) {
		if stats != nil {
			switch ev.Type {
			case trace.RESTRequest, trace.RESTResponse:
				stats.RESTEvents++
			default:
				stats.RPCEvents++
			}
		}
		if ev.Type.Request() {
			apis = append(apis, ev.API)
		}
	}, d.GroundTruth)
	d.Fabric.Tap(mon.HandlePacket)
	inst := d.Start(test.Op, func(*openstack.Instance) {
		// The test finished; stop heartbeat noise so the simulation
		// drains instead of idling.
		d.StopNoise()
	})
	d.Sim.Run()
	if inst.State != openstack.StateSucceeded {
		// Learning only uses successful iterations (§5); callers retry
		// with another seed if this ever fires (it cannot without an
		// injector).
		return nil
	}
	return apis
}

// LearnLibrary runs every catalog test runsPerTest times in isolation and
// learns the fingerprint library (Algorithm 1 end to end). It returns the
// library and the Table 1 event counters per category.
func LearnLibrary(c *Catalog, runsPerTest int, seed int64) (*fingerprint.Library, map[openstack.Category]*RunStats) {
	if runsPerTest < 1 {
		runsPerTest = 1
	}
	nf := fingerprint.NewNoiseFilter(openstack.NoiseAPIs())
	lib := fingerprint.NewLibrary()
	stats := make(map[openstack.Category]*RunStats)
	for _, cat := range openstack.Categories() {
		stats[cat] = &RunStats{}
	}
	for _, test := range c.Tests {
		traces := make([][]trace.API, 0, runsPerTest)
		for r := 0; r < runsPerTest; r++ {
			st := stats[test.Op.Category]
			if r > 0 {
				st = nil // Table 1 counts each test's single monitored run
			}
			tr := RunIsolated(test, seed^int64(test.Index*runsPerTest+r+1), st)
			if tr != nil {
				traces = append(traces, tr)
			}
		}
		lib.Add(test.Op.Name, test.Op.Category.String(), traces, nf)
	}
	return lib, stats
}
