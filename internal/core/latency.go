package core

import (
	"time"

	"gretel/internal/stats"
	"gretel/internal/tsoutliers"
)

// apiLat is everything the analyzer keeps about one API's latency: the
// operator-facing summary, the level-shift detector, and the time of the
// last performance snapshot armed for it (the PerfCooldown clock).
type apiLat struct {
	sum       stats.Summary
	det       *tsoutliers.Detector
	lastPerf  time.Time
	perfArmed bool // lastPerf is set
}

// due applies the performance-snapshot cooldown (stamping the clock as a
// side effect, so call it only when arming is otherwise warranted).
func (al *apiLat) due(at time.Time, cooldown time.Duration) bool {
	if cooldown < 0 {
		return true
	}
	if al.perfArmed && at.Sub(al.lastPerf) < cooldown {
		return false
	}
	al.lastPerf, al.perfArmed = at, true
	return true
}

// observe feeds one paired latency to the summary and level-shift
// detector of rec's API, creating them on its first pair, and returns the
// alarm count and whether a performance snapshot should be armed.
func (t *apiTable) observe(rec *apiRec, at time.Time, latency time.Duration, cfg *Config) (alarms int, armPerf bool) {
	al := rec.lat
	if al == nil {
		al = &apiLat{sum: *stats.NewSummary(), det: tsoutliers.New(t.opt)}
		rec.lat = al
	}
	v := latency.Seconds()
	al.sum.Observe(v)
	hits := al.det.Observe(at, v)
	if len(hits) == 0 {
		return 0, false
	}
	return len(hits), cfg.PerfDetection && al.due(at, cfg.PerfCooldown)
}
