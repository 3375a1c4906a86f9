package main

import (
	"strings"
	"testing"
	"time"
)

func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name              string
		backlog, traceCap int
		walFsync          string
		exportIvl         time.Duration
		exportBuf         int
		wantErr           string // substring; empty = valid
	}{
		{"all-zero-defaults", 0, 0, "interval", time.Second, 10000, ""},
		{"all-positive", 8, 1024, "every", 100 * time.Millisecond, 1, ""},
		{"fsync-none", 0, 0, "none", time.Second, 10000, ""},
		{"negative-backlog", -1, 0, "interval", time.Second, 10000, "-detect-backlog"},
		{"negative-trace-cap", 0, -5, "interval", time.Second, 10000, "-trace-store-cap"},
		{"bad-fsync", 0, 0, "sometimes", time.Second, 10000, "-wal-fsync"},
		{"zero-export-interval", 0, 0, "interval", 0, 10000, "-export-interval"},
		{"negative-export-interval", 0, 0, "interval", -time.Second, 10000, "-export-interval"},
		{"zero-export-buffer", 0, 0, "interval", time.Second, 0, "-export-buffer"},
	}
	for _, c := range cases {
		err := validateFlags(c.backlog, c.traceCap, c.walFsync, c.exportIvl, c.exportBuf)
		if c.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error: %v", c.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: expected error naming %s, got nil", c.name, c.wantErr)
			continue
		}
		if !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: error %q does not name the offending flag %s", c.name, err, c.wantErr)
		}
	}
}
