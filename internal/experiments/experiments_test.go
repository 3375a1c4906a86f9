package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"gretel/internal/core"
	"gretel/internal/openstack"
	"gretel/internal/scenario"
	"gretel/internal/tempest"
	"gretel/internal/trace"
	"gretel/internal/tracestore"
)

func TestTable1ShapeMatchesPaper(t *testing.T) {
	res := Table1(1, 2)
	if res.FPMax != 384 {
		t.Errorf("FPmax = %d, want 384", res.FPMax)
	}
	want := map[string]struct {
		tests        int
		fpWith, fpNo float64 // Table 1 targets
	}{
		"Compute": {517, 100, 56},
		"Image":   {55, 18, 15},
		"Network": {251, 31, 16},
		"Storage": {84, 17, 15},
		"Misc":    {293, 16, 11},
	}
	for _, row := range res.Rows {
		w, ok := want[row.Category]
		if !ok {
			t.Fatalf("unexpected category %q", row.Category)
		}
		if row.Tests != w.tests {
			t.Errorf("%s tests = %d, want %d", row.Category, row.Tests, w.tests)
		}
		// Within 25% of the paper's fingerprint averages.
		if row.AvgFPWith < w.fpWith*0.75 || row.AvgFPWith > w.fpWith*1.25 {
			t.Errorf("%s avg FP w/RPC = %.1f, paper %.0f", row.Category, row.AvgFPWith, w.fpWith)
		}
		if row.AvgFPNoRPC < w.fpNo*0.75 || row.AvgFPNoRPC > w.fpNo*1.3 {
			t.Errorf("%s avg FP w/o RPC = %.1f, paper %.0f", row.Category, row.AvgFPNoRPC, w.fpNo)
		}
		if row.RPCEvents == 0 || row.RESTEvents == 0 {
			t.Errorf("%s has zero event counts", row.Category)
		}
	}
	if s := FormatTable1(res); !strings.Contains(s, "Compute") || !strings.Contains(s, "FPmax") {
		t.Error("FormatTable1 output incomplete")
	}
}

func TestFig5OverlapCDF(t *testing.T) {
	cat := tempest.NewCatalog(1)
	lib := GroundTruthLibrary(cat)
	points := Fig5(lib, 70)
	if len(points) != 70 {
		t.Fatalf("sampled %d points, want 70", len(points))
	}
	for i := 1; i < len(points); i++ {
		if points[i].Overlap < points[i-1].Overlap {
			t.Fatal("CDF points not sorted")
		}
	}
	cdf := Fig5CDF(points, []float64{0.15})
	// Paper: ~90% of representative Compute operations have <15% overlap.
	if cdf[0.15] < 0.7 {
		t.Errorf("fraction with <15%% overlap = %.2f, paper ~0.9", cdf[0.15])
	}
	if s := FormatFig5(points); !strings.Contains(s, "overlap") {
		t.Error("FormatFig5 output incomplete")
	}
}

func TestFig7aPrecisionCell(t *testing.T) {
	cells := Fig7a(1, []int{100}, []int{4})
	if len(cells) != 1 {
		t.Fatalf("cells = %d", len(cells))
	}
	c := cells[0]
	if c.Reports != 4 {
		t.Fatalf("reports = %d, want 4", c.Reports)
	}
	// The paper's headline: precision > 98%.
	if c.AvgTheta < 0.98 {
		t.Errorf("precision = %.4f, want > 0.98", c.AvgTheta)
	}
	// The snapshot must narrow the candidate set far below the
	// API-error-only count (Fig 7b's two series).
	if c.AvgMatched >= c.AvgByErrorOnly/2 {
		t.Errorf("snapshot did not narrow: matched %.1f vs api-only %.1f",
			c.AvgMatched, c.AvgByErrorOnly)
	}
	if c.MaxReportDelay <= 0 || c.MaxReportDelay > 2*time.Minute {
		t.Errorf("report delay = %v", c.MaxReportDelay)
	}
	if s := FormatPrecision(cells); !strings.Contains(s, "precision") {
		t.Error("FormatPrecision output incomplete")
	}
}

func TestFig8aIdenticalFaults(t *testing.T) {
	cells := Fig8a(1, []int{100})
	if len(cells) != 1 || cells[0].Faults != 16 {
		t.Fatalf("cells = %+v", cells)
	}
	if cells[0].Reports < 12 {
		t.Errorf("reports = %d, want ~16", cells[0].Reports)
	}
	if cells[0].AvgTheta < 0.95 {
		t.Errorf("precision = %.4f", cells[0].AvgTheta)
	}
}

func TestFig6LatencyShift(t *testing.T) {
	res := Fig6(3, 120)
	if len(res.Series.Points) < 50 {
		t.Fatalf("series too short: %d points", len(res.Series.Points))
	}
	if len(res.Series.Shifts) == 0 {
		t.Fatal("no level shift detected despite CPU surge")
	}
	// The shift must occur after the surge and move the level upward.
	sh := res.Series.Shifts[0]
	if sh.Time.Before(res.SurgeAt) {
		t.Errorf("shift at %v before surge at %v", sh.Time, res.SurgeAt)
	}
	if sh.To <= sh.From {
		t.Errorf("shift direction wrong: %.3f -> %.3f", sh.From, sh.To)
	}
	if len(res.Reports) == 0 {
		t.Error("no performance reports raised")
	}
	if s := FormatLatencySeries(res.Series, 10); !strings.Contains(s, "shift") {
		t.Error("FormatLatencySeries output incomplete")
	}
}

func TestFig8bInjectedLatencyAlarms(t *testing.T) {
	res := Fig8b(5, 120)
	if res.AlarmsDuring == 0 {
		t.Fatal("no alarms during the injection window (paper: 18)")
	}
	// Alarms should concentrate inside the injection window; allow the
	// removal transient right after.
	after := res.Series.AlarmsBetween(res.RemoveAt.Add(30*time.Second), res.RemoveAt.Add(4*time.Minute))
	if after > res.AlarmsDuring {
		t.Errorf("more alarms after removal (%d) than during injection (%d)", after, res.AlarmsDuring)
	}
	if len(res.Series.Shifts) == 0 {
		t.Error("no level shift for the 50ms injection")
	}
}

func TestFig8cThroughputShape(t *testing.T) {
	points := Fig8c(7, 40000, []int{100, 2000}, core.Config{})
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	for _, p := range points {
		if p.Result.EventsPerSec <= 0 || p.Result.Mbps <= 0 {
			t.Fatalf("no throughput measured: %+v", p)
		}
		if p.Result.Reports == 0 {
			t.Fatalf("no reports at fault rate 1/%d", p.FaultEvery)
		}
	}
	// More faults -> more snapshot work -> more reports.
	if points[0].Result.Reports <= points[1].Result.Reports {
		t.Errorf("reports: 1/100=%d should exceed 1/2000=%d",
			points[0].Result.Reports, points[1].Result.Reports)
	}
	if s := FormatFig8c(points); !strings.Contains(s, "Mbps") {
		t.Error("FormatFig8c output incomplete")
	}
}

func TestHanselComparisonShape(t *testing.T) {
	g, h := HanselComparison(9, 40000)
	if g.Reports == 0 || h.Reports == 0 {
		t.Fatalf("missing reports: gretel=%d hansel=%d", g.Reports, h.Reports)
	}
	// HANSEL's defining cost: ~30s report latency from its bucket window;
	// GRETEL reports as soon as the snapshot fills.
	if h.MaxReportDelay < 29*time.Second {
		t.Errorf("HANSEL delay = %v, want ~30s", h.MaxReportDelay)
	}
	if g.MaxReportDelay >= h.MaxReportDelay {
		t.Errorf("GRETEL delay %v not below HANSEL %v", g.MaxReportDelay, h.MaxReportDelay)
	}
	if s := FormatComparison(g, h); !strings.Contains(s, "GRETEL") || !strings.Contains(s, "HANSEL") {
		t.Error("FormatComparison output incomplete")
	}
}

func TestOverheadMeasurement(t *testing.T) {
	res := Overhead(11, 40)
	if res.Events == 0 {
		t.Fatal("no events processed")
	}
	if res.AnalyzerWall <= 0 || res.PerEvent <= 0 {
		t.Fatalf("analyzer time not measured: %+v", res)
	}
	if res.AnalyzerShare <= 0 || res.AnalyzerShare > 1 {
		t.Fatalf("analyzer share = %v", res.AnalyzerShare)
	}
	if s := FormatOverhead(res); !strings.Contains(s, "analyzer wall time") {
		t.Error("FormatOverhead output incomplete")
	}
}

func TestGroundTruthLibraryMatchesCatalog(t *testing.T) {
	cat := tempest.NewCatalog(13)
	lib := GroundTruthLibrary(cat)
	if lib.Len() != len(cat.Tests) {
		t.Fatalf("library %d vs catalog %d", lib.Len(), len(cat.Tests))
	}
	for _, cate := range openstack.Categories() {
		test := cat.ByCategory[cate][0]
		fp := lib.ByName(test.Op.Name)
		if fp == nil || fp.Len() != len(test.Op.APIs()) {
			t.Fatalf("fingerprint mismatch for %s", test.Op.Name)
		}
	}
}

func TestChooseFaultAPIPrefersUnique(t *testing.T) {
	cat := tempest.NewCatalog(17)
	for _, test := range cat.ByCategory[openstack.Compute][:50] {
		api, ok := chooseFaultAPI(test.Op)
		if !ok {
			continue
		}
		if api.Kind != trace.REST || !api.StateChanging() {
			t.Fatalf("fault API %v not a state-change REST", api)
		}
	}
}

// precisionRuns memoizes precisionRun's harnesses by configuration.
var precisionRuns = map[precisionConfig]*scenario.Harness{}

// precisionConfig is one configuration of the shared precision run:
// correlation ids, explain mode, and blind ingest (OpID and OpName
// zeroed before the analyzer sees an event, as a deployment sees them).
type precisionConfig struct{ corr, explain, blind bool }

// precisionRun returns the driven harness of the 40-parallel, four-fault
// precision run (catalog 21, seed 77) in configuration c, driving each
// configuration once per test binary: the correlation-id, blind-parity
// and truth-join tests grade the same runs, and each run takes seconds
// (tens under -race).
func precisionRun(c precisionConfig) *scenario.Harness {
	if h, ok := precisionRuns[c]; ok {
		return h
	}
	cat := tempest.NewCatalog(21)
	run := &ParallelRun{
		Catalog: cat, Library: GroundTruthLibrary(cat), Parallel: 40,
		FaultTests:     pickFaultTestsDeterministic(cat, 4),
		Seed:           77,
		CorrelationIDs: c.corr,
	}
	if c.explain {
		run.TraceStore = tracestore.New(0)
	}
	h := run.harness()
	if c.blind {
		ingest := h.Sink
		h.Sink = func(ev trace.Event) {
			ev.OpID, ev.OpName = 0, ""
			ingest(ev)
		}
	}
	precisionRuns[c] = run.drive(h)
	return precisionRuns[c]
}

func TestCorrelationIDExtensionImprovesPrecision(t *testing.T) {
	// Explain mode only adds TraceID to a report, so the correlated run
	// is the one TestCorrelationIDBlindParity pins.
	base := summarize(precisionRun(precisionConfig{}), 40, 4)
	corr := summarize(precisionRun(precisionConfig{corr: true, explain: true}), 40, 4)
	if corr.Reports != 4 || base.Reports != 4 {
		t.Fatalf("reports: base=%d corr=%d", base.Reports, corr.Reports)
	}
	// Correlation ids restrict matching to the faulty operation's own
	// messages: the matched set must shrink and the true operation must
	// always be included.
	if corr.AvgMatched > base.AvgMatched {
		t.Errorf("corr-ids did not narrow: %.1f vs %.1f", corr.AvgMatched, base.AvgMatched)
	}
	if corr.HitRate < 1.0 {
		t.Errorf("corr-id hit rate = %.2f, want 1.0", corr.HitRate)
	}
	if corr.AvgTheta < base.AvgTheta {
		t.Errorf("corr-id precision %.4f below baseline %.4f", corr.AvgTheta, base.AvgTheta)
	}
}

// corrRunDigest is the sha256 of TestCorrelationIDBlindParity's decorated
// run: its reports' JSON followed by each report's evidence JSON.
const corrRunDigest = "3240bdaf75de57381b378a5a5913b7eb7647b75913cf9fdc49b144c89592c140"

// TestCorrelationIDBlindParity runs a correlation-id precision run in
// explain mode twice, once with the analyzer fed events whose
// ground-truth OpID and OpName are zeroed, as a deployment sees them:
// every report must carry the same OffendingAPI, Candidates, Beta and
// Precision both ways, with θ in [0, 1], and store a byte-identical
// evidence trace. The decorated run must also hash to corrRunDigest, and
// no candidate may cover more of the pattern than the pattern holds.
func TestCorrelationIDBlindParity(t *testing.T) {
	d := precisionRun(precisionConfig{corr: true, explain: true})
	b := precisionRun(precisionConfig{corr: true, explain: true, blind: true})
	dr, br := d.Reports(), b.Reports()
	if len(dr) != 4 || len(br) != 4 {
		t.Fatalf("reports: decorated %d, blind %d, want 4", len(dr), len(br))
	}
	// Pin the correlated matcher's output: the decorated run's reports,
	// then each report's evidence, hashed together.
	sum := sha256.New()
	rj, _ := json.Marshal(dr)
	sum.Write(rj)
	for _, rep := range dr {
		ej, _ := json.Marshal(d.Analyzer.ExplainStore().Get(rep.TraceID))
		sum.Write(ej)
	}
	if got := hex.EncodeToString(sum.Sum(nil)); got != corrRunDigest {
		t.Errorf("correlation-id run digest %s, want %s", got, corrRunDigest)
	}
	over, cands, example := 0, 0, ""
	for _, tr := range d.Analyzer.ExplainStore().All() {
		for _, c := range tr.Candidates {
			cands++
			if c.MandatoryHit > c.MandatoryTotal {
				over++
				example = fmt.Sprintf("%s %d/%d", c.Name, c.MandatoryHit, c.MandatoryTotal)
			}
		}
	}
	if over > 0 {
		t.Errorf("%d of %d candidates have MandatoryHit > MandatoryTotal (e.g. %s)", over, cands, example)
	}
	for i, dp := range dr {
		bp := br[i]
		if dp.OffendingAPI != bp.OffendingAPI || dp.Beta != bp.Beta || dp.Precision != bp.Precision ||
			!slices.Equal(dp.Candidates, bp.Candidates) {
			t.Errorf("report %d: verdict changes blind: offending %v β=%d θ=%v %v, blind %v β=%d θ=%v %v",
				i, dp.OffendingAPI, dp.Beta, dp.Precision, dp.Candidates, bp.OffendingAPI, bp.Beta, bp.Precision, bp.Candidates)
		}
		if dp.Precision < 0 || dp.Precision > 1 {
			t.Errorf("report %d: θ = %v outside [0, 1]", i, dp.Precision)
		}
		dj, _ := json.Marshal(d.Analyzer.ExplainStore().Get(dp.TraceID))
		bj, _ := json.Marshal(b.Analyzer.ExplainStore().Get(bp.TraceID))
		if !bytes.Equal(dj, bj) {
			t.Errorf("report %d: evidence differs blind:\ndecorated %s\nblind     %s", i, dj, bj)
		}
	}
}

func TestFig8bClassifiesTemporaryChange(t *testing.T) {
	res := Fig8b(5, 120)
	if res.Series.TempChanges != 1 {
		t.Errorf("temporary changes = %d, want 1 (the bounded 10-minute injection)", res.Series.TempChanges)
	}
}

func TestHanselLinkingOverReporting(t *testing.T) {
	withT, withoutT := HanselLinking(3, 30000)
	if withoutT < 1 {
		t.Fatalf("baseline linking = %v", withoutT)
	}
	if withT <= withoutT {
		t.Errorf("shared tenant ids should over-link: %v vs %v", withT, withoutT)
	}
}

// TestTruthJoinMatchesDecoration: the harness grades a report by joining
// its offending message's wire identifiers to the deployment's ground
// truth. On every run the experiments grade, that join must agree with
// the truth the monitor writes onto events, which it is meant to replace.
func TestTruthJoinMatchesDecoration(t *testing.T) {
	check := func(name string, h *scenario.Harness, minReports int) {
		reps := h.Reports()
		if len(reps) < minReports {
			t.Fatalf("%s: %d reports, want at least %d", name, len(reps), minReports)
		}
		for _, rep := range reps {
			id, op := h.Truth(rep)
			if id != rep.Fault.OpID || op != rep.TruthOp {
				t.Errorf("%s: join (%d, %s), decoration (%d, %s)", name, id, op, rep.Fault.OpID, rep.TruthOp)
			}
			if h.Hit(rep) != rep.Hit() {
				t.Errorf("%s: join hit %v, decoration hit %v (candidates %v)", name, h.Hit(rep), rep.Hit(), rep.Candidates)
			}
		}
	}
	check("precision", precisionRun(precisionConfig{}), 4)
	check("precision, correlation ids", precisionRun(precisionConfig{corr: true, explain: true}), 4)

	// Fig 8a's shape: identical faulty operations, so every truth names
	// the same operation and only the instance ids tell them apart.
	cat := tempest.NewCatalog(21)
	lib := GroundTruthLibrary(cat)
	fig8a := fig8aRun(21, cat, lib, 20, 16)
	h := fig8a.drive(fig8a.harness())
	check("fig8a", h, 12)
	ids := map[uint64]bool{}
	for _, rep := range h.Reports() {
		id, op := h.Truth(rep)
		if want := fig8a.FaultTests[0].Op.Name; op != want {
			t.Errorf("fig8a: truth %s, want %s", op, want)
		}
		ids[id] = true
	}
	if len(ids) < 12 {
		t.Errorf("fig8a: %d distinct faulty instances, want at least 12", len(ids))
	}

	_, h = fig6(3, 120, nil)
	check("fig6", h, 1)
}
