package core

import (
	"time"

	"gretel/internal/stats"
	"gretel/internal/trace"
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

// latTrack is the analyzer's per-API latency state, fed on every paired
// response: one map probe finds all of an API's state.
type latTrack struct {
	opt  tsoutliers.Options
	apis map[trace.API]*apiLat
}

func newLatTrack(opt tsoutliers.Options) latTrack {
	return latTrack{opt: opt, apis: make(map[trace.API]*apiLat)}
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

// observe feeds one paired latency to the API's summary and level-shift
// detector, returning the alarm count and whether a performance
// snapshot should be armed.
func (l *latTrack) observe(api trace.API, at time.Time, latency time.Duration, cfg *Config) (alarms int, armPerf bool) {
	al := l.apis[api]
	if al == nil {
		al = &apiLat{sum: *stats.NewSummary(), det: tsoutliers.New(l.opt)}
		l.apis[api] = al
	}
	v := latency.Seconds()
	al.sum.Observe(v)
	hits := al.det.Observe(at, v)
	if len(hits) == 0 {
		return 0, false
	}
	return len(hits), cfg.PerfDetection && al.due(at, cfg.PerfCooldown)
}
