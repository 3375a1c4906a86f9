// Package experiments reproduces every table and figure of the paper's
// evaluation (§7) on the simulated deployment: Table 1 and Fig 5
// (characterization), Fig 6/8b (performance faults), Fig 7a-c and 8a
// (precision), Fig 8c and the HANSEL comparison (throughput), and the
// §7.4.2 overhead measurement. `gretel experiments` and the
// repository benchmarks call these drivers.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"gretel/internal/fingerprint"
	"gretel/internal/openstack"
	"gretel/internal/tempest"
)

// Table1Row is one row of Table 1.
type Table1Row struct {
	Category   string
	Tests      int
	UniqueRPC  int
	UniqueREST int
	RPCEvents  uint64
	RESTEvents uint64
	AvgFPWith  float64
	AvgFPNoRPC float64
}

// Table1Result bundles the characterization output.
type Table1Result struct {
	Rows    []Table1Row
	Library *fingerprint.Library
	FPMax   int
}

// GroundTruthLibrary builds the fingerprint library directly from the
// catalog's ground-truth API sequences. The tempest tests verify that
// offline learning (Algorithm 1 over isolated executions) recovers
// exactly these sequences; experiments that only need the library use
// this much faster construction.
func GroundTruthLibrary(c *tempest.Catalog) *fingerprint.Library {
	lib := fingerprint.NewLibrary()
	for _, test := range c.Tests {
		lib.AddAPIs(test.Op.Name, test.Op.Category.String(), test.Op.APIs())
	}
	return lib
}

// Table1 runs the full characterization: every catalog test executed in
// isolation (runsPerTest times), fingerprints learned with Algorithm 1,
// and the Table 1 statistics aggregated.
func Table1(seed int64, runsPerTest int) Table1Result {
	cat := tempest.NewCatalog(seed)
	lib, stats := tempest.LearnLibrary(cat, runsPerTest, seed^0x7ab1e)

	byCat := map[string]fingerprint.Stats{}
	for _, st := range lib.StatsByCategory() {
		byCat[st.Category] = st
	}
	var rows []Table1Row
	for _, c := range openstack.Categories() {
		st := byCat[c.String()]
		rs := stats[c]
		rows = append(rows, Table1Row{
			Category:   c.String(),
			Tests:      st.Count,
			UniqueRPC:  st.UniqueRPC,
			UniqueREST: st.UniqueREST,
			RPCEvents:  rs.RPCEvents,
			RESTEvents: rs.RESTEvents,
			AvgFPWith:  st.AvgLenWith,
			AvgFPNoRPC: st.AvgLenNoRPC,
		})
	}
	return Table1Result{Rows: rows, Library: lib, FPMax: lib.MaxLen()}
}

// FormatTable1 renders the rows like the paper's Table 1.
func FormatTable1(res Table1Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-9s %6s %8s %9s %9s %10s %9s %9s\n",
		"Category", "Tests", "uRPC", "uREST", "RPCev", "RESTev", "FP w/", "FP w/o")
	var totRPC, totREST uint64
	for _, r := range res.Rows {
		fmt.Fprintf(&b, "%-9s %6d %8d %9d %8.1fK %9.1fK %9.0f %9.0f\n",
			r.Category, r.Tests, r.UniqueRPC, r.UniqueREST,
			float64(r.RPCEvents)/1000, float64(r.RESTEvents)/1000,
			r.AvgFPWith, r.AvgFPNoRPC)
		totRPC += r.RPCEvents
		totREST += r.RESTEvents
	}
	fmt.Fprintf(&b, "%-9s %6d %8s %9s %8.1fK %9.1fK\n", "Total", 1200, "-", "-",
		float64(totRPC)/1000, float64(totREST)/1000)
	fmt.Fprintf(&b, "FPmax = %d (paper: 384)\n", res.FPMax)
	return b.String()
}

// Fig5Point is one CDF point: a Compute operation's maximum symbol-set
// overlap with any operation of another category.
type Fig5Point struct {
	Name    string
	Overlap float64
}

// Fig5 computes the overlap CDF for representative Compute operations
// (the paper plots 70).
func Fig5(lib *fingerprint.Library, sample int) []Fig5Point {
	var compute, others []*fingerprint.Fingerprint
	for _, fp := range lib.All() {
		if fp.Category == "Compute" {
			compute = append(compute, fp)
		} else {
			others = append(others, fp)
		}
	}
	if sample > 0 && len(compute) > sample {
		// Deterministic spread across the category.
		stride := len(compute) / sample
		picked := make([]*fingerprint.Fingerprint, 0, sample)
		for i := 0; i < sample; i++ {
			picked = append(picked, compute[i*stride])
		}
		compute = picked
	}
	out := make([]Fig5Point, 0, len(compute))
	for _, f := range compute {
		maxOv := 0.0
		for _, g := range others {
			if ov := fingerprint.Overlap(f, g); ov > maxOv {
				maxOv = ov
			}
		}
		out = append(out, Fig5Point{Name: f.Name, Overlap: maxOv})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Overlap < out[j].Overlap })
	return out
}

// Fig5CDF summarizes the CDF: the fraction of sampled operations with
// overlap below each threshold.
func Fig5CDF(points []Fig5Point, thresholds []float64) map[float64]float64 {
	out := make(map[float64]float64, len(thresholds))
	for _, th := range thresholds {
		n := 0
		for _, p := range points {
			if p.Overlap < th {
				n++
			}
		}
		out[th] = float64(n) / float64(len(points))
	}
	return out
}

// FormatFig5 renders the CDF series.
func FormatFig5(points []Fig5Point) string {
	var b strings.Builder
	b.WriteString("overlap_pct  cdf\n")
	for i, p := range points {
		fmt.Fprintf(&b, "%10.1f  %5.3f\n", p.Overlap*100, float64(i+1)/float64(len(points)))
	}
	cdf := Fig5CDF(points, []float64{0.15})
	fmt.Fprintf(&b, "fraction with <15%% overlap: %.0f%% (paper: ~90%%)\n", cdf[0.15]*100)
	return b.String()
}
