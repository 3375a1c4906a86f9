package core_test

import (
	"fmt"
	"testing"

	"gretel/internal/core"
	"gretel/internal/experiments"
	"gretel/internal/window"
)

// TestPushedWordIsPure holds the word ingest pushes beside each event,
// read back from window snapshots (Snapshot.Words), to Analyzer.Word of
// the event, over every event of the storm bench stream and of the
// stream the Fig 6 harness feeds its analyzer. The words are checked on
// a goroutine of their own while ingest runs, as a detect worker would
// compute them.
func TestPushedWordIsPure(t *testing.T) {
	streams := []struct {
		name string
		s    *experiments.PerfStream
	}{
		{"storm", &experiments.PerfStream{Events: experiments.StormBenchStream(30000), Lib: experiments.BenchLibrary()}},
		{"fig6", experiments.Fig6Stream(1, 20)},
	}
	for _, st := range streams {
		a := core.New(st.s.Lib, st.s.Config)
		type frozen struct {
			snap  *window.Snapshot
			first uint64 // push number of the snapshot's oldest message
		}
		snaps := make(chan frozen, 64)
		covered := make([]bool, len(st.s.Events))
		errc := make(chan error, 1)
		go func() {
			var err error
			var words [][]uint32
			for f := range snaps {
				words = f.snap.Words(words[:0])
				i := 0
				for _, ws := range words {
					for _, w := range ws {
						if want := a.Word(f.snap.At(i)); w != want && err == nil {
							err = fmt.Errorf("push %d: ingest pushed word %#x, Word gives %#x", f.first+uint64(i), w, want)
						}
						covered[f.first+uint64(i)] = true
						i++
					}
				}
				if i != f.snap.Len() && err == nil {
					err = fmt.Errorf("snapshot at push %d: %d words for %d messages", f.first, i, f.snap.Len())
				}
				f.snap.Release()
			}
			errc <- err
		}()
		arm := func() {
			a.ArmWindow(func(s *window.Snapshot) { snaps <- frozen{s, a.WindowPushed() - uint64(s.Len())} })
		}
		// A freeze point every α/2 pushes fires over the α pushes around
		// it, so consecutive snapshots overlap and cover the stream.
		half := a.Config().Alpha / 2
		for i := range st.s.Events {
			a.Ingest(st.s.Events[i])
			if (i+1)%half == 0 {
				arm()
			}
		}
		arm()
		a.Close()
		close(snaps)
		if err := <-errc; err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		for i, ok := range covered {
			if !ok {
				t.Fatalf("%s: push %d of %d in no snapshot", st.name, i, len(covered))
			}
		}
	}
}
