// The federated-fleet experiment: a full scale-out run through every
// real component — two analyzer members serving /healthz and /reports
// over HTTP, a federation.Coordinator probing, assigning, and merging,
// and agents resolving their analyzer through the coordinator's /assign
// endpoint — with one member killed mid-burst to measure failover.
package experiments

import (
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"gretel/internal/agent"
	"gretel/internal/core"
	"gretel/internal/federation"
	"gretel/internal/replay"
	"gretel/internal/trace"
)

// ClusterResult is the outcome of one federated soak.
type ClusterResult struct {
	// Members is the fleet size (one killed mid-run).
	Members int
	// Sent is the total events streamed across all deployments.
	Sent uint64
	// Delivered is the total events analyzed fleet-wide; it exceeds Sent
	// by Replayed, the survivor's re-analysis of the victim's retained
	// prefix (failover's at-least-once cost).
	Delivered uint64
	Replayed  uint64
	// Missing and Dups are the transport ledger at the final owners:
	// both must be zero (zero silent loss through the failover).
	Missing, Dups uint64
	// Reports is the fleet-wide report count; Merged is how many the
	// coordinator merged (Late arrived behind the reorder watermark,
	// MergeDups were rejected by the per-incarnation dedup).
	Reports   int
	Merged    uint64
	Late      uint64
	MergeDups uint64
	// EpochStart/EpochEnd bracket the run: the kill must bump the epoch.
	EpochStart, EpochEnd uint64
	// Victim names the killed member; Failover is how long the fleet
	// took from the kill until the survivor had admitted everything the
	// victim ever owned.
	Victim   string
	Failover time.Duration
	// Wall is the whole run's wall-clock time.
	Wall time.Duration
}

// clusterMember bundles one analyzer member's moving parts.
type clusterMember struct {
	cfg      federation.MemberConfig
	recv     *agent.Receiver
	analyzer *core.Analyzer
	log      *federation.ReportLog
	srv      *http.Server
	done     chan struct{}
}

func (m *clusterMember) kill() {
	m.srv.Close() // probes start failing: the coordinator declares death
	m.recv.Close()
}

// Cluster runs the federated fleet soak: two members, two monitored
// deployments streaming ~events each, the owner of the first deployment
// killed after its first half. Every layer is the production one — the
// coordinator talks to members over HTTP exactly as `gretel coord` does,
// and agents resolve their analyzer through GET /assign exactly as
// `gretel agent` does.
func Cluster(seed int64, events int) (ClusterResult, error) {
	lib := BenchLibrary()
	streams := [][]trace.Event{
		replay.Synthesize(replay.StreamConfig{Events: events, Concurrency: 40, FaultEvery: 400, Seed: seed}),
		replay.Synthesize(replay.StreamConfig{Events: events, Concurrency: 40, FaultEvery: 400, Seed: seed + 1}),
	}

	// Members: receiver + analyzer + report log + HTTP surface.
	var members []*clusterMember
	defer func() {
		for _, m := range members {
			m.srv.Close()
			m.recv.Close()
		}
	}()
	for _, name := range []string{"alpha", "beta"} {
		recv, err := agent.ListenConfig(agent.ReceiverConfig{
			Addr: "127.0.0.1:0", ReadTimeout: 100 * time.Millisecond,
		})
		if err != nil {
			return ClusterResult{}, err
		}
		a := core.New(lib, core.Config{Alpha: 256, Member: name})
		lg := federation.NewReportLog()
		a.OnReport(lg.Record)
		mux := http.NewServeMux()
		mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) { w.Write([]byte("ok")) })
		mux.Handle("/reports", lg.Handler())
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			recv.Close()
			return ClusterResult{}, err
		}
		srv := &http.Server{Handler: mux}
		go srv.Serve(ln)
		m := &clusterMember{
			cfg: federation.MemberConfig{
				Name: name, EventAddr: recv.Addr(), BaseURL: "http://" + ln.Addr().String(),
			},
			recv: recv, analyzer: a, log: lg, srv: srv, done: make(chan struct{}),
		}
		go func() {
			replay.DriveTransport(m.analyzer, m.recv, nil)
			close(m.done)
		}()
		members = append(members, m)
	}

	// Coordinator, plus its /assign endpoint on a real listener so the
	// agents resolve over HTTP like `gretel agent` does.
	cfgs := make([]federation.MemberConfig, len(members))
	byName := map[string]*clusterMember{}
	for i, m := range members {
		cfgs[i] = m.cfg
		byName[m.cfg.Name] = m
	}
	coord, err := federation.NewCoordinator(federation.CoordinatorConfig{
		Members:       cfgs,
		ProbeInterval: 25 * time.Millisecond,
		PullInterval:  25 * time.Millisecond,
		Window:        100 * time.Millisecond,
		DownFails:     2,
	})
	if err != nil {
		return ClusterResult{}, err
	}
	defer coord.Close()
	coordLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return ClusterResult{}, err
	}
	coordMux := http.NewServeMux()
	coordMux.Handle("/assign", coord.AssignHandler())
	coordSrv := &http.Server{Handler: coordMux}
	go coordSrv.Serve(coordLn)
	defer coordSrv.Close()
	coordURL := "http://" + coordLn.Addr().String()

	deadline := time.Now().Add(30 * time.Second)
	for coord.Epoch() == 0 || len(aliveNames(coord)) != len(members) {
		if time.Now().After(deadline) {
			return ClusterResult{}, fmt.Errorf("members never became alive")
		}
		time.Sleep(5 * time.Millisecond)
	}
	res := ClusterResult{Members: len(members), EpochStart: coord.Epoch()}

	// The victim is whichever member owns the first deployment.
	asg, err := coord.Assignment("dep-1")
	if err != nil {
		return ClusterResult{}, err
	}
	res.Victim = asg.Member
	victim := byName[asg.Member]

	// Stream both deployments; pause at half, kill the victim, resume.
	start := time.Now()
	halfDone := make(chan struct{}, len(streams))
	resume := make(chan struct{})
	errc := make(chan error, 2*len(streams))
	var killedAt time.Time
	var wg sync.WaitGroup
	for i := range streams {
		key, stream := fmt.Sprintf("dep-%d", i+1), streams[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			snd, err := agent.DialConfig(agent.SenderConfig{
				Resolve: federation.Resolver(coordURL, key), Agent: key,
				Ring:       1 << 18, // retain everything: failover loses nothing
				Heartbeat:  5 * time.Millisecond,
				BackoffMin: 2 * time.Millisecond, BackoffMax: 20 * time.Millisecond,
				WriteTimeout: 2 * time.Second, DrainTimeout: 30 * time.Second,
			})
			if err != nil {
				errc <- err
				return
			}
			defer snd.Close()
			for j := range stream {
				snd.Send(stream[j])
				if j == len(stream)/2 {
					halfDone <- struct{}{}
					<-resume
				}
				if j%64 == 63 {
					awaitFlushed(snd)
				}
			}
			wait := time.Now().Add(60 * time.Second)
			for {
				owner := ownerOf(coord, byName, key)
				st := owner.recv.AgentStats()[key]
				if st.LastSeq >= uint64(len(stream)) {
					if st.Missing != 0 || st.Dups != 0 {
						errc <- fmt.Errorf("%s: ledger broken at final owner: missing=%d dups=%d", key, st.Missing, st.Dups)
					}
					return
				}
				if time.Now().After(wait) {
					errc <- fmt.Errorf("%s: final owner stuck at %d/%d", key, st.LastSeq, len(stream))
					return
				}
				time.Sleep(2 * time.Millisecond)
			}
		}()
	}
	for range streams {
		<-halfDone
	}
	// Make the failover mean something: the victim must have admitted
	// and analyzed every first half it owns before it dies, so the
	// survivor's replay is a real re-analysis, not a fresh start.
	var victimAdmitted uint64
	for i := range streams {
		key := fmt.Sprintf("dep-%d", i+1)
		if asg, err := coord.Assignment(key); err == nil && asg.Member == victim.cfg.Name {
			half := uint64(len(streams[i])/2 + 1)
			waitUntil(deadline, func() bool {
				return victim.recv.AgentStats()[key].LastSeq >= half
			})
			victimAdmitted += half
		}
	}
	waitUntil(deadline, func() bool {
		return victim.analyzer.Stats.Events >= victimAdmitted
	})
	// And let the coordinator pull everything the victim has reported so
	// far: its log dies with it.
	waitUntil(deadline, func() bool {
		return coordCursorCaughtUp(coord, victim.cfg.Name, victim.log)
	})
	killedAt = time.Now()
	victim.kill()
	close(resume)
	wg.Wait()
	close(errc)
	if err := <-errc; err != nil {
		return ClusterResult{}, err
	}
	res.Failover = time.Since(killedAt)
	res.Wall = time.Since(start)

	// Shut the fleet down, then close the coordinator (its final pull
	// drains the survivors' logs) and fold up the ledgers.
	for _, m := range members {
		m.recv.Close()
		<-m.done
	}
	waitUntil(time.Now().Add(10*time.Second), func() bool {
		pulled := uint64(0)
		for _, m := range members {
			if m != victim {
				pulled += uint64(m.log.Len())
			}
		}
		return coord.Cluster().Merged >= pulled
	})
	res.EpochEnd = coord.Epoch()
	if res.EpochEnd <= res.EpochStart {
		return ClusterResult{}, fmt.Errorf("kill did not bump the epoch (%d -> %d)", res.EpochStart, res.EpochEnd)
	}

	for _, stream := range streams {
		res.Sent += uint64(len(stream))
	}
	for _, m := range members {
		res.Delivered += m.analyzer.Stats.Events
		res.Reports += m.log.Len()
		for _, st := range m.recv.AgentStats() {
			res.Missing += st.Missing
			res.Dups += st.Dups
		}
	}
	res.Replayed = res.Delivered - res.Sent
	res.Merged = coord.Cluster().Merged
	return res, nil
}

// aliveNames lists the members the coordinator currently sees alive.
func aliveNames(c *federation.Coordinator) []string {
	var out []string
	for _, m := range c.Cluster().Members {
		if m.Alive {
			out = append(out, m.Name)
		}
	}
	return out
}

// ownerOf resolves a key's current owner through the coordinator.
func ownerOf(c *federation.Coordinator, byName map[string]*clusterMember, key string) *clusterMember {
	if asg, err := c.Assignment(key); err == nil {
		return byName[asg.Member]
	}
	// No alive members is transient mid-kill; fall back to any member so
	// the caller's polling loop keeps going.
	for _, m := range byName {
		return m
	}
	return nil
}

// coordCursorCaughtUp reports whether the coordinator's pull cursor for
// member has reached the member log's high water.
func coordCursorCaughtUp(c *federation.Coordinator, member string, lg *federation.ReportLog) bool {
	high := lg.Page(0).Next - 1
	for _, m := range c.Cluster().Members {
		if m.Name == member {
			return m.Since >= high
		}
	}
	return false
}

func waitUntil(deadline time.Time, cond func() bool) bool {
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(5 * time.Millisecond)
	}
	return true
}

// FormatCluster renders the federated soak outcome.
func FormatCluster(res ClusterResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "federated fleet: %d members, victim %s killed mid-burst\n", res.Members, res.Victim)
	fmt.Fprintf(&b, "  events:   %d sent, %d analyzed (%d replayed into the survivor)\n", res.Sent, res.Delivered, res.Replayed)
	fmt.Fprintf(&b, "  ledger:   missing=%d dups=%d (zero silent loss through failover)\n", res.Missing, res.Dups)
	fmt.Fprintf(&b, "  reports:  %d produced fleet-wide, %d merged by the coordinator\n", res.Reports, res.Merged)
	fmt.Fprintf(&b, "  epochs:   %d -> %d (membership change on the kill)\n", res.EpochStart, res.EpochEnd)
	fmt.Fprintf(&b, "  failover: %v from kill to survivor fully caught up (wall %v)\n",
		res.Failover.Round(time.Millisecond), res.Wall.Round(time.Millisecond))
	return b.String()
}

// awaitFlushed paces a sender by volume: it yields until the writer has
// flushed every frame spooled so far, or for at most 50 ms while the
// connection is down (mid-failover).
func awaitFlushed(snd *agent.Sender) {
	deadline := time.Now().Add(50 * time.Millisecond)
	for st := snd.Stats(); st.Flushed+st.Shed < st.Assigned && time.Now().Before(deadline); st = snd.Stats() {
		runtime.Gosched()
	}
}
