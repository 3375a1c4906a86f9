package main

import (
	"fmt"
	"log"
	"net"
	"net/http"
	"strings"
	"time"

	"gretel/internal/federation"
	"gretel/internal/telemetry"
)

// memberList collects repeatable -member name,eventAddr,baseURL flags.
type memberList []federation.MemberConfig

func (m *memberList) String() string { return fmt.Sprint(*m) }

func (m *memberList) Set(v string) error {
	parts := strings.Split(v, ",")
	if len(parts) != 3 {
		return fmt.Errorf("want name,eventAddr,baseURL, got %q", v)
	}
	*m = append(*m, federation.MemberConfig{
		Name:      strings.TrimSpace(parts[0]),
		EventAddr: strings.TrimSpace(parts[1]),
		BaseURL:   strings.TrimSpace(parts[2]),
	})
	return nil
}

// runCoord federates analyzers into one cluster. Each -member is an
// analyzer run with -telemetry: the id stamped on envelopes, its
// agent-transport listener, and its telemetry base URL. A member failing
// -down-fails consecutive /healthz probes is declared dead and the
// assignment epoch bumps; reports are pulled every -pull-interval and
// merged within a -window reorder horizon, so a federation of one emits
// byte-identical output to a bare analyzer.
func runCoord(args []string) error {
	p := newProc("coord")
	fs := p.fs
	var members memberList
	var (
		listen    = fs.String("listen", ":6170", "address to serve the coordinator API on")
		probeIvl  = fs.Duration("probe-interval", 500*time.Millisecond, "member /healthz probe period")
		downFails = fs.Int("down-fails", 2, "consecutive probe failures before a member is declared dead")
		pullIvl   = fs.Duration("pull-interval", 250*time.Millisecond, "member /reports pull period")
		window    = fs.Duration("window", 0, "merge reorder horizon (0 = 2x pull interval)")
	)
	fs.Var(&members, "member", "analyzer member as name,eventAddr,baseURL (repeatable)")
	err := p.parse(args, func() error {
		if len(members) == 0 {
			return fmt.Errorf("at least one -member is required")
		}
		return nil
	})
	if err != nil {
		return err
	}

	coord, err := federation.NewCoordinator(federation.CoordinatorConfig{
		Members:       members,
		ProbeInterval: *probeIvl,
		DownFails:     *downFails,
		PullInterval:  *pullIvl,
		Window:        *window,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		coord.Close()
		return err
	}
	// The coordinator's /metrics and /healthz are the cluster's, so it
	// serves its own mux rather than the per-process endpoint.
	srv := &http.Server{Handler: coord.Mux(telemetry.Default())}
	go srv.Serve(ln)
	log.Printf("coordinating %d members on http://%s (assign at /assign, merged reports at /reports)",
		len(members), ln.Addr())
	for _, m := range members {
		log.Printf("  member %s: events %s, telemetry %s", m.Name, m.EventAddr, m.BaseURL)
	}

	untilSignal(func() {
		coord.Close()
		srv.Close()
	})
	view := coord.Cluster()
	log.Printf("done: %d reports merged (%d pending flushed), epoch %d", view.Merged, view.Pending, view.Epoch)
	return nil
}
