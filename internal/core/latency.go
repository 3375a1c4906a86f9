package core

import (
	"math"
	"time"

	"gretel/internal/stats"
	"gretel/internal/tsoutliers"
)

// apiLat is everything the analyzer keeps about one API's latency: the
// operator-facing summary, the level-shift detector, and the time of the
// last performance snapshot armed for it (the perfCooldown clock). Ingest
// creates it on the API's first pair; from then on only the latency
// stage's fold touches its fields.
type apiLat struct {
	sum       stats.Summary
	det       *tsoutliers.Detector
	lastPerf  time.Time
	perfArmed bool // lastPerf is set
}

func newAPILat(opt tsoutliers.Options) *apiLat {
	return &apiLat{sum: *stats.NewSummary(), det: tsoutliers.New(opt)}
}

// perfCooldown suppresses further performance snapshots for an API
// within this much event time of the previous one, so a sustained
// anomaly does not spawn a snapshot per affected exchange.
const perfCooldown = 30 * time.Second

// due applies the performance-snapshot cooldown (stamping the clock as a
// side effect, so call it only when arming is otherwise warranted).
func (al *apiLat) due(at time.Time) bool {
	if al.perfArmed && at.Sub(al.lastPerf) < perfCooldown {
		return false
	}
	al.lastPerf, al.perfArmed = at, true
	return true
}

// latBatch is how many samples the latency stage folds per goroutine.
// Each hand-off costs a goroutine start and a wake-up of the idle
// processor; the sweep in DESIGN.md ("Ingest is one path") found smaller
// batches paying for that in CPU on two processors and larger ones no
// faster.
const latBatch = 1024

// latSample is one paired, non-faulty response's latency.
type latSample struct {
	lat     *apiLat
	at      time.Time
	latency time.Duration
	// push is the window's push count after the response: where a
	// performance snapshot for it arms.
	push uint64
}

// latBuf is one batch of samples and, once folded, its verdicts.
type latBuf struct {
	samples []latSample
	alarms  uint64  // level-shift alarms the batch raised
	arms    []int32 // the samples whose alarm arms a performance snapshot
}

// fold feeds each sample to its API's summary and level-shift detector,
// in order, and records the batch's verdicts. It touches nothing but the
// batch and the samples' apiLat values, so it may run on a goroutine of
// its own.
func (b *latBuf) fold(perf bool) {
	// The loop reads and writes locals, not b: ingest writes the other
	// batch's header, which may share b's cache line.
	samples, alarms, arms := b.samples, uint64(0), b.arms[:0]
	for i := range samples {
		s := &samples[i]
		v := s.latency.Seconds()
		s.lat.sum.Observe(v)
		if n := len(s.lat.det.Observe(s.at, v)); n > 0 {
			alarms += uint64(n)
			if perf && s.lat.due(s.at) {
				arms = append(arms, int32(i))
			}
		}
	}
	b.alarms, b.arms = alarms, arms
}

// latStage is the latency tracking that runs beside ingest. Ingest posts
// samples into the filling batch; a full batch folds on a goroutine of
// its own while ingest fills the other, and ingest collects its verdicts
// before handing off the next one, so at most one batch is in flight and
// every API sees its samples in arrival order. With PerfDetection on, a
// performance snapshot must arm before the push Arm at its response
// would have fired it on, α/2 pushes later, so a batch is collected
// collectBy pushes after its first sample at the latest: waited for if
// it is folding, folded on the receiver if it is still filling. At the
// paper's α that deadline comes long before a batch fills, so with
// PerfDetection the stage mostly folds on the receiver, a batch at a
// time (DESIGN.md "Ingest is one path").
type latStage struct {
	perf      bool
	collectBy uint64
	bufs      [2]latBuf
	fill      int    // the index of the batch ingest fills
	folding   bool   // the other batch is folding on its goroutine
	due       uint64 // the push at which ingest must next collect a batch
	// foldOther is the fold goroutine's body: it folds the batch ingest
	// is not filling and signals done. Made once, so starting a fold
	// allocates nothing.
	foldOther func()
	done      chan struct{}
}

func newLatStage(perf bool, alpha int) *latStage {
	s := &latStage{
		perf:      perf,
		collectBy: uint64(alpha/2 - 1),
		done:      make(chan struct{}, 1),
		due:       math.MaxUint64,
	}
	for i := range s.bufs {
		s.bufs[i].samples = make([]latSample, 0, latBatch)
	}
	s.foldOther = func() {
		s.bufs[1-s.fill].fold(s.perf)
		s.done <- struct{}{}
	}
	return s
}

// post appends a sample pushed at push to the filling batch and reports
// whether the batch is full.
func (s *latStage) post(al *apiLat, at time.Time, latency time.Duration, push uint64) bool {
	b := &s.bufs[s.fill]
	if len(b.samples) == 0 && s.perf {
		s.due = min(s.due, push+s.collectBy)
	}
	b.samples = append(b.samples, latSample{al, at, latency, push})
	return len(b.samples) == latBatch
}

// nextDue is the push at which a batch must next be collected to meet
// the performance snapshot deadline; never without PerfDetection. The
// batch in flight is older than the filling one, so it is due first.
func (s *latStage) nextDue() uint64 {
	switch {
	case !s.perf:
		return math.MaxUint64
	case s.folding:
		return s.bufs[1-s.fill].samples[0].push + s.collectBy
	case len(s.bufs[s.fill].samples) > 0:
		return s.bufs[s.fill].samples[0].push + s.collectBy
	}
	return math.MaxUint64
}

// observeLatency posts one paired, non-faulty response's latency to the
// latency stage, creating rec's latency state on its first pair. The
// response was the window's latest push.
func (a *Analyzer) observeLatency(rec *apiRec, at time.Time, latency time.Duration) {
	if rec.lat == nil {
		rec.lat = newAPILat(a.cfg.Latency)
	}
	if a.lat.post(rec.lat, at, latency, a.win.Pushed()) {
		a.handOffLatency()
	}
}

// handOffLatency starts the filling batch folding on a goroutine of its
// own, after collecting the batch before it.
func (a *Analyzer) handOffLatency() {
	s := a.lat
	if s.folding {
		a.collectFolding()
	}
	s.fill, s.folding = 1-s.fill, true
	go s.foldOther()
	s.due = s.nextDue()
}

// settleLatency collects each batch whose first sample was pushed at or
// before push through: the one in flight first, waiting for it, then the
// filling one, folded on the receiver. Ingest calls it when a
// performance snapshot deadline comes due; Flush and the accessors call
// it through every push, to fold all the samples posted so far.
func (a *Analyzer) settleLatency(through uint64) {
	s := a.lat
	if s.folding && s.bufs[1-s.fill].samples[0].push <= through {
		a.collectFolding()
	}
	if b := &s.bufs[s.fill]; len(b.samples) > 0 && b.samples[0].push <= through {
		b.fold(s.perf)
		a.collectLatency(b)
	}
	s.due = s.nextDue()
}

// collectFolding waits for the batch in flight and collects it.
func (a *Analyzer) collectFolding() {
	<-a.lat.done
	a.lat.folding = false
	a.collectLatency(&a.lat.bufs[1-a.lat.fill])
}

// collectLatency applies a folded batch's verdicts on the ingest
// goroutine — the alarm count, and a performance snapshot armed at each
// arming sample's push — and empties it.
func (a *Analyzer) collectLatency(b *latBuf) {
	a.Stats.PerfAlarms += b.alarms
	mFaultsPerf.Add(b.alarms)
	now := a.win.Pushed()
	for _, i := range b.arms {
		s := &b.samples[i]
		a.armSnapshot(Performance, s.latency, int(now-s.push))
	}
	b.samples = b.samples[:0]
}
