package main

import (
	"bytes"
	"errors"
	"os"
	"os/signal"
	"reflect"
	"sort"
	"strings"
	"syscall"
	"testing"
	"time"

	"gretel/internal/agent"
	"gretel/internal/openstack"
)

func lookup(t *testing.T, name string) command {
	t.Helper()
	for _, c := range commands {
		if c.name == name {
			return c
		}
	}
	t.Fatalf("no subcommand %q", name)
	return command{}
}

// wantUsage asserts err is a usage error whose text contains want.
func wantUsage(t *testing.T, label string, err error, want string) {
	t.Helper()
	if !errors.As(err, new(usageError)) {
		t.Errorf("%s: got %v, want a usage error naming %s", label, err, want)
	} else if !strings.Contains(err.Error(), want) {
		t.Errorf("%s: error %q does not name %s", label, err, want)
	}
}

// TestValidateFlags: the analyzer's and the agent's size and policy flags
// reject values that parse but cannot be meant, before anything starts.
func TestValidateFlags(t *testing.T) {
	analyze, agentCmd := lookup(t, "analyze"), lookup(t, "agent")
	for _, b := range []struct {
		cmd     command
		args    []string
		wantErr string
	}{
		{analyze, []string{"-alpha", "-5"}, "-alpha"},
		{analyze, []string{"-prate", "-1"}, "-prate"},
		{analyze, []string{"-t", "-0.5"}, "-t must"},
		{analyze, []string{"-fault-every", "-3"}, "-fault-every"},
		{analyze, []string{"-detect-backlog", "-1"}, "-detect-backlog"},
		{analyze, []string{"-trace-store-cap", "-5"}, "-trace-store-cap"},
		{analyze, []string{"-wal-fsync", "sometimes"}, "-wal-fsync"},
		{agentCmd, []string{"-spool", "-1"}, "-spool"},
		{agentCmd, []string{"-parallel", "-1"}, "-parallel"},
		{agentCmd, []string{"-faults", "-1"}, "-faults"},
		{agentCmd, []string{"-duration", "-5m"}, "-duration"},
		{agentCmd, []string{"-drain-timeout", "-1s"}, "-drain-timeout"},
	} {
		wantUsage(t, b.cmd.name+" "+strings.Join(b.args, " "), b.cmd.run(b.args), b.wantErr)
	}

	// The accepted edge of every checked flag, on runs small enough to
	// finish in a moment.
	err := analyze.run([]string{"-replay", "2000", "-quiet", "-detect-backlog", "0", "-trace-store-cap", "0",
		"-wal-fsync", "none", "-alpha", "0", "-prate", "0", "-t", "0", "-fault-every", "0"})
	if err != nil {
		t.Fatalf("valid analyze flags: %v", err)
	}
	recv, err := agent.ListenConfig(agent.ReceiverConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	err = agentCmd.run([]string{"-analyzer", recv.Addr(), "-spool", "0", "-parallel", "0", "-faults", "0",
		"-duration", "0s", "-drain-timeout", "0"})
	if err != nil {
		t.Fatalf("valid agent flags: %v", err)
	}
	// A zero drain timeout is the default one, not none: a run with
	// frames to flush at exit must still succeed.
	err = agentCmd.run([]string{"-analyzer", recv.Addr(), "-parallel", "2", "-faults", "0",
		"-duration", "2s", "-drain-timeout", "0"})
	if err != nil {
		t.Fatalf("-drain-timeout 0 with frames to drain: %v", err)
	}
}

// TestBadFlagIsUsageError: an unknown flag, an unparseable value or a
// stray argument fails every subcommand with a usage error before it
// starts anything.
func TestBadFlagIsUsageError(t *testing.T) {
	for _, c := range commands {
		wantUsage(t, c.name+" -no-such-flag", c.run([]string{"-no-such-flag"}), "not defined")
		wantUsage(t, c.name+" stray", c.run([]string{"stray"}), "unexpected argument")
		// No subcommand exports its telemetry: /metrics is the only egress.
		wantUsage(t, c.name+" -telemetry-export", c.run([]string{"-telemetry-export", "http://x"}), "not defined")
	}
	wantUsage(t, "analyze -replay x", lookup(t, "analyze").run([]string{"-replay", "x"}), "-replay")
	wantUsage(t, "agent -scenario", lookup(t, "agent").run([]string{"-scenario", "flood"}), "-scenario")
	wantUsage(t, "coord without members", lookup(t, "coord").run(nil), "-member")
	wantUsage(t, "coord -member", lookup(t, "coord").run([]string{"-member", "a,b"}), "name,eventAddr,baseURL")
	wantUsage(t, "experiments -exp", lookup(t, "experiments").run([]string{"-exp", "fig9"}), "fig9")
	wantUsage(t, "experiments reanalyze", lookup(t, "experiments").run([]string{"-exp", "reanalyze"}), "-wal-dir")
}

func TestDispatchExitCodes(t *testing.T) {
	var stderr bytes.Buffer
	if code := dispatch(nil, &stderr); code != 2 {
		t.Errorf("no subcommand: exit %d, want 2", code)
	}
	for _, c := range commands {
		if !strings.Contains(stderr.String(), c.name) {
			t.Errorf("usage does not list %q:\n%s", c.name, stderr.String())
		}
	}
	stderr.Reset()
	if code := dispatch([]string{"-replay", "100"}, &stderr); code != 2 || !strings.Contains(stderr.String(), "unknown subcommand") {
		t.Errorf("flag in place of a subcommand: exit %d, stderr %q; want 2 and unknown subcommand", code, stderr.String())
	}
	if code := dispatch([]string{"tempest"}, &stderr); code != 2 {
		t.Errorf("unknown subcommand: exit %d, want 2", code)
	}
	stderr.Reset()
	if code := dispatch([]string{"tsdb"}, &stderr); code != 2 || !strings.Contains(stderr.String(), "unknown subcommand") {
		t.Errorf("tsdb: exit %d, stderr %q; want 2 and unknown subcommand", code, stderr.String())
	}
	if code := dispatch([]string{"coord"}, &stderr); code != 2 {
		t.Errorf("usage error: exit %d, want 2", code)
	}
	if code := dispatch([]string{"fingerprint", "-h"}, &stderr); code != 0 {
		t.Errorf("-h: exit %d, want 0", code)
	}
	if code := dispatch([]string{"analyze", "-library", "/nonexistent/library.json", "-replay", "1"}, &stderr); code != 1 {
		t.Errorf("failure: exit %d, want 1", code)
	}
}

func TestMemberListSet(t *testing.T) {
	var m memberList
	for _, v := range []string{"a,b", "a,b,c,d", ""} {
		if err := m.Set(v); err == nil {
			t.Errorf("Set(%q) accepted a value without exactly three fields", v)
		}
	}
	if err := m.Set(" alpha , 127.0.0.1:6166 ,http://127.0.0.1:6167 "); err != nil {
		t.Fatal(err)
	}
	if err := m.Set("beta,127.0.0.1:6266,http://127.0.0.1:6268"); err != nil {
		t.Fatal(err)
	}
	want := memberList{
		{Name: "alpha", EventAddr: "127.0.0.1:6166", BaseURL: "http://127.0.0.1:6167"},
		{Name: "beta", EventAddr: "127.0.0.1:6266", BaseURL: "http://127.0.0.1:6268"},
	}
	if !reflect.DeepEqual(m, want) {
		t.Errorf("members = %+v, want %+v", m, want)
	}
}

// TestAgentStreams runs the agent subcommand in-process against a real
// receiver: one merged stream, or one stream per deployment node with
// -per-node, each closing with nothing missing.
func TestAgentStreams(t *testing.T) {
	if testing.Short() {
		t.Skip("drives the simulated deployment over loopback TCP")
	}
	var nodes []string
	for _, n := range openstack.NewDeployment(openstack.Config{Seed: 1}).Fabric.Nodes() {
		nodes = append(nodes, n.Name)
	}
	sort.Strings(nodes)
	for _, tc := range []struct {
		name  string
		flags []string
		want  []string
	}{
		{"merged", nil, []string{"agent"}},
		{"per-node", []string{"-per-node"}, nodes},
	} {
		t.Run(tc.name, func(t *testing.T) {
			recv, err := agent.ListenConfig(agent.ReceiverConfig{Addr: "127.0.0.1:0"})
			if err != nil {
				t.Fatal(err)
			}
			defer recv.Close()
			go func() {
				for batch := range recv.Batches() {
					recv.Recycle(batch)
				}
			}()
			go func() {
				for range recv.States() {
				}
			}()

			args := append([]string{"-analyzer", recv.Addr(), "-parallel", "20", "-duration", "10s", "-faults", "0"}, tc.flags...)
			if err := runAgent(args); err != nil {
				t.Fatal(err)
			}
			// The senders are closed, so every frame is on the wire; wait
			// until the receiver has accounted for the last of them.
			var names []string
			var stats, prev map[string]agent.AgentStat
			for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
				prev, stats = stats, recv.AgentStats()
				names = names[:0]
				for name := range stats {
					names = append(names, name)
				}
				sort.Strings(names)
				if reflect.DeepEqual(names, tc.want) && reflect.DeepEqual(stats, prev) {
					break
				}
			}
			if !reflect.DeepEqual(names, tc.want) {
				t.Fatalf("streams %v, want %v", names, tc.want)
			}
			// A node whose owned traffic is empty (the broker's, the
			// database's) streams no frames; the stream still opens.
			var frames uint64
			for name, st := range stats {
				frames += st.LastSeq
				if st.Missing != 0 || st.Dups != 0 {
					t.Errorf("stream %s: %+v, want missing=0 dups=0", name, st)
				}
			}
			if frames == 0 {
				t.Error("no stream carried a frame")
			}
		})
	}
}

// TestUntilSignalDrainsOnSIGTERM: the helper ends its wait and runs the
// drain on SIGTERM, not only on SIGINT.
func TestUntilSignalDrainsOnSIGTERM(t *testing.T) {
	// A SIGTERM that lands before the helper registers must not kill the
	// test binary, so hold the signal here too for the test's duration.
	guard := make(chan os.Signal, 1)
	signal.Notify(guard, syscall.SIGTERM)
	defer signal.Stop(guard)

	self, err := os.FindProcess(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	drained := make(chan struct{})
	go untilSignal(func() { close(drained) })
	deadline := time.After(10 * time.Second)
	for {
		if err := self.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		select {
		case <-drained:
			return
		case <-deadline:
			t.Fatal("untilSignal did not return on SIGTERM")
		case <-time.After(20 * time.Millisecond):
		}
	}
}
