package federation

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"gretel/internal/telemetry"
)

// Coordinator telemetry (lives in the coordinator process's registry
// and shows up in its merged /metrics under the federation.* prefix).
var (
	mMerged      = telemetry.GetCounter("federation.reports_merged")
	mLate        = telemetry.GetCounter("federation.reports_late")
	mDup         = telemetry.GetCounter("federation.reports_dup")
	mSkipped     = telemetry.GetCounter("federation.reports_skipped")
	mPulls       = telemetry.GetCounter("federation.pulls")
	mPullErrors  = telemetry.GetCounter("federation.pull_errors")
	mProbeFails  = telemetry.GetCounter("federation.probe_failures")
	mAssignments = telemetry.GetCounter("federation.assignments")
	mEpochBumps  = telemetry.GetCounter("federation.epoch_bumps")
	gEpoch       = telemetry.GetGauge("federation.epoch")
	gAlive       = telemetry.GetGauge("federation.members_alive")
)

// MemberConfig names one analyzer instance: where agents stream events
// to it, and where its telemetry endpoints live.
type MemberConfig struct {
	// Name is the member id carried on envelopes (must be unique).
	Name string `json:"name"`
	// EventAddr is the member's agent-transport listener ("host:port"),
	// handed to agents via /assign.
	EventAddr string `json:"event_addr"`
	// BaseURL is the member's telemetry HTTP base ("http://host:port"),
	// probed for /healthz and pulled for /reports and /metrics.
	BaseURL string `json:"base_url"`
}

// CoordinatorConfig tunes the coordinator.
type CoordinatorConfig struct {
	// Members is the static fleet (≥1).
	Members []MemberConfig
	// ProbeInterval is the /healthz probe period (default 500ms).
	ProbeInterval time.Duration
	// DownFails is how many consecutive probe failures mark a member
	// dead (default 2). The first failure already reroutes nothing —
	// agents keep their assignment until the member is declared dead.
	DownFails int
	// PullInterval is the /reports pull period (default 250ms).
	PullInterval time.Duration
	// Window is the merge reorder horizon (default 2×PullInterval).
	Window time.Duration
	// Client overrides the HTTP client (default: 2s timeout).
	Client *http.Client
}

func (c *CoordinatorConfig) defaults() {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 500 * time.Millisecond
	}
	if c.DownFails <= 0 {
		c.DownFails = 2
	}
	if c.PullInterval <= 0 {
		c.PullInterval = 250 * time.Millisecond
	}
	if c.Window <= 0 {
		c.Window = 2 * c.PullInterval
	}
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 2 * time.Second}
	}
}

// memberState is the coordinator's live view of one member.
type memberState struct {
	cfg     MemberConfig
	alive   bool
	fails   int
	boot    uint64 // member ReportLog incarnation (0 = never pulled)
	since   uint64 // pull cursor: highest seq ingested
	skipped uint64 // reports evicted from the member ring before pull
	lastErr string
}

// MemberView is the /cluster JSON for one member.
type MemberView struct {
	MemberConfig
	Alive   bool   `json:"alive"`
	Boot    uint64 `json:"boot,omitempty"`
	Since   uint64 `json:"since"`
	Skipped uint64 `json:"skipped,omitempty"`
	LastErr string `json:"last_err,omitempty"`
}

// Assignment is the /assign response: where an agent should stream.
type Assignment struct {
	Agent  string `json:"agent"`
	Member string `json:"member"`
	Addr   string `json:"addr"`
	Epoch  uint64 `json:"epoch"`
}

// Coordinator probes member health, assigns agents to members by
// rendezvous hashing over the live set, pulls member report logs, and
// merges them into one deterministically ordered stream. It is the only
// federation-aware process; members and agents stay stock.
type Coordinator struct {
	cfg    CoordinatorConfig
	merger *Merger

	mu      sync.Mutex
	names   []string // configured member order
	members map[string]*memberState
	epoch   uint64
	agents  map[string]string // agent -> member it was last assigned
	merged  []Envelope        // a ring once full: the oldest at merged[head]
	head    int
	evicted uint64 // merged entries overwritten past mergedCap

	stop      chan struct{}
	done      chan struct{}
	closeOnce sync.Once
}

// NewCoordinator validates the fleet and starts the probe/pull loop.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	cfg.defaults()
	if len(cfg.Members) == 0 {
		return nil, fmt.Errorf("federation: coordinator needs at least one member")
	}
	c := &Coordinator{
		cfg:     cfg,
		members: make(map[string]*memberState, len(cfg.Members)),
		agents:  make(map[string]string),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	for _, m := range cfg.Members {
		if m.Name == "" || m.EventAddr == "" || m.BaseURL == "" {
			return nil, fmt.Errorf("federation: member needs name, event addr, and base URL: %+v", m)
		}
		if _, dup := c.members[m.Name]; dup {
			return nil, fmt.Errorf("federation: duplicate member %q", m.Name)
		}
		m.BaseURL = strings.TrimRight(m.BaseURL, "/")
		c.members[m.Name] = &memberState{cfg: m}
		c.names = append(c.names, m.Name)
	}
	c.merger = NewMerger(MergerConfig{Window: cfg.Window, Emit: c.emit})
	go c.run()
	return c, nil
}

// Close stops the loops (after one final pull) and flushes the merger.
// Idempotent.
func (c *Coordinator) Close() {
	c.closeOnce.Do(func() {
		close(c.stop)
		<-c.done
		c.merger.Flush()
	})
}

// mergedCap bounds the retained merged stream; past it each envelope
// overwrites the oldest, which is counted in ClusterView.Evicted.
const mergedCap = 1 << 16

// emit appends one merged envelope to the bounded retained stream.
func (c *Coordinator) emit(env Envelope) {
	mMerged.Inc()
	c.mu.Lock()
	if len(c.merged) < mergedCap {
		c.merged = append(c.merged, env)
	} else {
		c.merged[c.head] = env
		c.head = (c.head + 1) % mergedCap
		c.evicted++
	}
	c.mu.Unlock()
}

// run drives probing and pulling on one goroutine, so state transitions
// (and their epoch bumps) are serialized.
func (c *Coordinator) run() {
	defer close(c.done)
	probe := time.NewTicker(c.cfg.ProbeInterval)
	defer probe.Stop()
	pull := time.NewTicker(c.cfg.PullInterval)
	defer pull.Stop()
	c.probeAll() // prime liveness before the first tick
	for {
		select {
		case <-c.stop:
			c.pullAll() // final drain of whatever members still answer
			return
		case <-probe.C:
			c.probeAll()
		case <-pull.C:
			c.pullAll()
			c.merger.AdvanceTo(time.Now().Add(-c.cfg.Window))
		}
	}
}

// probeAll checks every member's /healthz and applies liveness
// transitions. Each change to the alive set bumps the epoch in the same
// critical section as the flip, so Cluster and Assignment never show an
// alive set under the epoch of the one before it.
func (c *Coordinator) probeAll() {
	for _, name := range c.names {
		st := c.member(name)
		ok, err := c.probe(st.cfg.BaseURL)
		c.mu.Lock()
		was := st.alive
		if ok {
			st.fails = 0
			st.lastErr = ""
			st.alive = true
		} else {
			mProbeFails.Inc()
			st.fails++
			st.lastErr = err
			if st.fails >= c.cfg.DownFails {
				st.alive = false
			}
		}
		if st.alive != was {
			c.bumpEpochLocked()
			alive := int64(0)
			for _, m := range c.members {
				if m.alive {
					alive++
				}
			}
			gAlive.Set(alive)
		}
		c.mu.Unlock()
	}
}

func (c *Coordinator) probe(base string) (bool, string) {
	resp, err := c.cfg.Client.Get(base + "/healthz")
	if err != nil {
		return false, err.Error()
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false, fmt.Sprintf("healthz: %s", resp.Status)
	}
	return true, ""
}

// bumpEpochLocked advances the assignment epoch; c.mu must be held.
func (c *Coordinator) bumpEpochLocked() {
	c.epoch++
	mEpochBumps.Inc()
	gEpoch.Set(int64(c.epoch))
}

// pullAll ingests report increments from every alive member.
func (c *Coordinator) pullAll() {
	for _, name := range c.names {
		st := c.member(name)
		c.mu.Lock()
		alive, base, since := st.alive, st.cfg.BaseURL, st.since
		c.mu.Unlock()
		if !alive {
			continue
		}
		mPulls.Inc()
		page, err := c.fetchPage(base, since)
		if err != nil {
			mPullErrors.Inc()
			c.mu.Lock()
			st.lastErr = err.Error()
			c.mu.Unlock()
			continue
		}
		c.mu.Lock()
		if page.Boot != st.boot {
			// New log incarnation: the member restarted (or this is the
			// first pull). Reset the cursor and re-pull next tick; a
			// genuine restart is a membership event, so bump the epoch.
			if st.boot != 0 {
				c.bumpEpochLocked()
			}
			st.boot = page.Boot
			st.since = 0
			c.mu.Unlock()
			continue
		}
		if page.First > st.since+1 && len(page.Reports) > 0 {
			miss := page.First - st.since - 1
			st.skipped += miss
			mSkipped.Add(miss)
		}
		epoch := c.epoch
		for _, e := range page.Reports {
			if e.Seq > st.since {
				st.since = e.Seq
			}
		}
		reports := page.Reports
		c.mu.Unlock()
		for _, e := range reports {
			c.merger.Add(Envelope{Member: name, Epoch: epoch, Seq: e.Seq, At: e.At, Report: e.Report})
		}
	}
	st := c.merger.Stats()
	mLate.Add(st.Late - mLate.Value())
	mDup.Add(st.Dups - mDup.Value())
}

func (c *Coordinator) fetchPage(base string, since uint64) (LogPage, error) {
	var page LogPage
	resp, err := c.cfg.Client.Get(fmt.Sprintf("%s/reports?since=%d", base, since))
	if err != nil {
		return page, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return page, fmt.Errorf("reports: %s", resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		return page, fmt.Errorf("reports: decoding: %w", err)
	}
	return page, nil
}

func (c *Coordinator) member(name string) *memberState {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.members[name]
}

// aliveLocked returns the alive member names in configured order; c.mu
// must be held.
func (c *Coordinator) aliveLocked() []string {
	alive := make([]string, 0, len(c.names))
	for _, n := range c.names {
		if c.members[n].alive {
			alive = append(alive, n)
		}
	}
	return alive
}

// Assignment maps an agent onto its current analyzer. It fails when no
// member is alive; the agent's resolver treats that as a failed dial
// attempt and retries with backoff.
func (c *Coordinator) Assignment(agent string) (Assignment, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	name := Assign(agent, c.aliveLocked())
	if name == "" {
		return Assignment{}, fmt.Errorf("federation: no alive members")
	}
	c.agents[agent] = name
	mAssignments.Inc()
	return Assignment{Agent: agent, Member: name, Addr: c.members[name].cfg.EventAddr, Epoch: c.epoch}, nil
}

// Epoch returns the current assignment epoch.
func (c *Coordinator) Epoch() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// ClusterView is the /cluster JSON: epoch, members, and the last-known
// agent assignments (re-derived against the current alive set).
type ClusterView struct {
	Epoch       uint64            `json:"epoch"`
	Members     []MemberView      `json:"members"`
	Assignments map[string]string `json:"assignments,omitempty"`
	Merged      uint64            `json:"merged"`
	Pending     int               `json:"pending"`
	Evicted     uint64            `json:"evicted,omitempty"`
}

// Cluster snapshots the membership and assignment state.
func (c *Coordinator) Cluster() ClusterView {
	c.mu.Lock()
	defer c.mu.Unlock()
	view := ClusterView{Epoch: c.epoch, Evicted: c.evicted}
	for _, n := range c.names {
		st := c.members[n]
		view.Members = append(view.Members, MemberView{
			MemberConfig: st.cfg, Alive: st.alive, Boot: st.boot,
			Since: st.since, Skipped: st.skipped, LastErr: st.lastErr,
		})
	}
	alive := c.aliveLocked()
	if len(c.agents) > 0 {
		view.Assignments = make(map[string]string, len(c.agents))
		for agent := range c.agents {
			view.Assignments[agent] = Assign(agent, alive)
		}
	}
	view.Merged = c.merger.Stats().Merged
	view.Pending = c.merger.Pending()
	return view
}

// MergeStats reports the merger's ordering counters (merged, late,
// duplicate, and pending envelopes).
func (c *Coordinator) MergeStats() MergerStats {
	return c.merger.Stats()
}

// Merged returns a copy of the retained merged stream, oldest first.
func (c *Coordinator) Merged() []Envelope {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Envelope, 0, len(c.merged))
	out = append(out, c.merged[c.head:]...)
	return append(out, c.merged[:c.head]...)
}

// --- HTTP surface -------------------------------------------------------

// AssignHandler serves GET /assign?agent=NAME.
func (c *Coordinator) AssignHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		agent := req.URL.Query().Get("agent")
		if agent == "" {
			http.Error(w, "missing agent parameter", http.StatusBadRequest)
			return
		}
		asg, err := c.Assignment(agent)
		if err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(asg)
	})
}

// Resolver is the client half of AssignHandler: the function an agent
// sender calls before every dial (agent.SenderConfig.Resolve) to learn
// which member owns partition key. baseURL is the coordinator's HTTP
// base. A coordinator that hangs fails the attempt after 5 s instead of
// parking the sender's dial loop; a non-200 answer or an assignment
// without an address is an error, so the sender backs off and asks again.
func Resolver(baseURL, key string) func() (string, error) {
	client := &http.Client{Timeout: 5 * time.Second}
	u := strings.TrimRight(baseURL, "/") + "/assign?agent=" + url.QueryEscape(key)
	return func() (string, error) {
		resp, err := client.Get(u)
		if err != nil {
			return "", err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return "", fmt.Errorf("coord assign: %s", resp.Status)
		}
		var asg Assignment
		if err := json.NewDecoder(resp.Body).Decode(&asg); err != nil {
			return "", fmt.Errorf("coord assign: decoding: %w", err)
		}
		if asg.Addr == "" {
			return "", fmt.Errorf("coord assign: no address for %q", key)
		}
		return asg.Addr, nil
	}
}

// ClusterHandler serves GET /cluster.
func (c *Coordinator) ClusterHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(c.Cluster())
	})
}

// HealthzHandler merges member health into one cluster verdict: 200
// when every configured member is alive, 503 naming the dead ones.
func (c *Coordinator) HealthzHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		c.mu.Lock()
		type memberHealth struct {
			Name    string `json:"name"`
			Alive   bool   `json:"alive"`
			LastErr string `json:"last_err,omitempty"`
		}
		out := struct {
			OK      bool           `json:"ok"`
			Epoch   uint64         `json:"epoch"`
			Members []memberHealth `json:"members"`
		}{OK: true, Epoch: c.epoch}
		var dead []string
		for _, n := range c.names {
			st := c.members[n]
			out.Members = append(out.Members, memberHealth{Name: n, Alive: st.alive, LastErr: st.lastErr})
			if !st.alive {
				dead = append(dead, n)
			}
		}
		c.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		if len(dead) > 0 {
			out.OK = false
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		json.NewEncoder(w).Encode(out)
	})
}

// ReportsHandler streams the merged report bodies as NDJSON — exactly
// the members' bytes, in merged order — or full envelopes with
// ?format=envelope.
func (c *Coordinator) ReportsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		envs := c.Merged()
		if req.URL.Query().Get("format") == "envelope" {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			for _, env := range envs {
				enc.Encode(env)
			}
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		for _, env := range envs {
			w.Write(env.Report)
			w.Write([]byte("\n"))
		}
	})
}

// MetricsHandler merges every alive member's /metrics?format=json
// snapshot with the coordinator's own registry into one cluster view:
// counters, gauges, and funcs sum per name; histogram counts sum with
// count-weighted means and quantiles (an approximation — exact merge
// would need the raw buckets) and max of maxes. Text by default,
// ?format=json for the merged snapshot.
func (c *Coordinator) MetricsHandler(own *telemetry.Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		merged := own.Snapshot()
		c.mu.Lock()
		targets := make([]string, 0, len(c.names))
		for _, n := range c.names {
			if st := c.members[n]; st.alive {
				targets = append(targets, st.cfg.BaseURL)
			}
		}
		c.mu.Unlock()
		for _, base := range targets {
			var snap telemetry.Snapshot
			resp, err := c.cfg.Client.Get(base + "/metrics?format=json")
			if err != nil {
				continue
			}
			err = json.NewDecoder(resp.Body).Decode(&snap)
			resp.Body.Close()
			if err != nil {
				continue
			}
			mergeSnapshot(&merged, &snap)
		}
		if req.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(merged)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		merged.WriteText(w)
	})
}

// mergeSnapshot folds src into dst.
func mergeSnapshot(dst, src *telemetry.Snapshot) {
	if dst.Counters == nil {
		dst.Counters = map[string]uint64{}
	}
	for k, v := range src.Counters {
		dst.Counters[k] += v
	}
	if dst.Gauges == nil {
		dst.Gauges = map[string]int64{}
	}
	for k, v := range src.Gauges {
		dst.Gauges[k] += v
	}
	if len(src.Funcs) > 0 && dst.Funcs == nil {
		dst.Funcs = map[string]float64{}
	}
	for k, v := range src.Funcs {
		dst.Funcs[k] += v
	}
	if dst.Histograms == nil {
		dst.Histograms = map[string]telemetry.HistStats{}
	}
	for k, v := range src.Histograms {
		cur := dst.Histograms[k]
		total := cur.Count + v.Count
		if total > 0 {
			wa := func(a, b float64) float64 {
				return (a*float64(cur.Count) + b*float64(v.Count)) / float64(total)
			}
			cur.MeanMs = wa(cur.MeanMs, v.MeanMs)
			cur.P50Ms = wa(cur.P50Ms, v.P50Ms)
			cur.P90Ms = wa(cur.P90Ms, v.P90Ms)
			cur.P99Ms = wa(cur.P99Ms, v.P99Ms)
		}
		cur.Count = total
		if v.MaxMs > cur.MaxMs {
			cur.MaxMs = v.MaxMs
		}
		dst.Histograms[k] = cur
	}
}

// Mux builds the coordinator's full HTTP surface: /assign, /cluster,
// /reports, and the federation-merged /metrics and /healthz (which is
// why it cannot reuse telemetry.NewMux — that mux owns those two
// patterns for the local process view).
func (c *Coordinator) Mux(own *telemetry.Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/assign", c.AssignHandler())
	mux.Handle("/cluster", c.ClusterHandler())
	mux.Handle("/reports", c.ReportsHandler())
	mux.Handle("/metrics", c.MetricsHandler(own))
	mux.Handle("/healthz", c.HealthzHandler())
	return mux
}
