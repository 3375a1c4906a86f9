package main

import (
	"fmt"
	"log"
	"time"

	"gretel/internal/experiments"
)

// runFingerprint is the offline learning phase (Algorithm 1) over
// isolated runs of every catalog test on the simulated deployment.
func runFingerprint(args []string) error {
	p := newProc("fingerprint")
	seed := p.fs.Int64("seed", 1, "catalog seed")
	runs := p.fs.Int("runs", 2, "isolated executions per test (LCS pruning needs >= 2)")
	out := p.fs.String("o", "", "write the learned library to this JSON file")
	if err := p.parse(args); err != nil {
		return err
	}

	log.Printf("learning fingerprints for 1200 catalog tests (%d runs each)...", *runs)
	start := time.Now()
	res := experiments.Table1(*seed, *runs)
	log.Printf("learned %d fingerprints in %v", res.Library.Len(), time.Since(start).Round(time.Millisecond))

	fmt.Println()
	fmt.Print(experiments.FormatTable1(res))

	if *out != "" {
		if err := res.Library.SaveFile(*out); err != nil {
			return err
		}
		log.Printf("library written to %s", *out)
	}
	return nil
}
