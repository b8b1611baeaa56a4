package main

import (
	"fmt"
	"math"
)

// layerCheck is one check of the traced run. An enforced check that fails
// fails the run; the others are reported only.
//
// The stage-sum check is reported only: it measures how much of Recommend
// the six public stage calls cover, and on serve-warm they cover about
// 0.83–0.89 of its median. The rest is Recommend's own work between the
// calls (intern slot resolution, exclusion marks, the hot merge), which no
// public function exposes, so only timings inside the program can close it.
type layerCheck struct {
	name     string
	ok       bool
	enforced bool
	detail   string
}

// maxStageSumError is how far the sum of the serve-stage medians may sit
// from the in-process Recommend median, as a share of it.
const maxStageSumError = 0.15

// Layer-load thresholds: each workload must load the layer it was chosen
// for, or its world and traffic need resizing.
const (
	// serve-warm reads must be served from the decoded-value cache.
	minWarmHitRatio = 0.95
	// mixed-netkv must miss the cache clearly more often: a miss share of
	// at least 7%, five times the 1.3–1.4% serve-warm measures. Over ten
	// seeds it measured 0.870–0.880, five times that range below the
	// threshold.
	maxNetHitRatio = 0.93
	// ingest-dense must generate clearly more similar-pair updates per
	// action than either sparse world (about 0.1 and 0.03 there).
	minDensePairsPerAction = 0.5
)

func layerChecks(workload string, m map[string]float64) []layerCheck {
	r := m["recommend.stage_sum_ratio"]
	checks := []layerCheck{{
		name:   "stage_sum",
		ok:     math.Abs(r-1) <= maxStageSumError,
		detail: fmt.Sprintf("stage medians sum to %.3f of the Recommend median (want within ±%.2f; reported only)", r, maxStageSumError),
	}}
	hit, pairs := m["objcache.hit_ratio"], m["storm.pairs_per_action"]
	load := layerCheck{name: "layer_load", enforced: true}
	switch workload {
	case "serve-warm":
		load.ok = hit >= minWarmHitRatio
		load.detail = fmt.Sprintf("objcache hit ratio %.3f (want ≥ %.2f)", hit, minWarmHitRatio)
	case "mixed-netkv":
		load.ok = hit <= maxNetHitRatio
		load.detail = fmt.Sprintf("objcache hit ratio %.3f (want ≤ %.2f)", hit, maxNetHitRatio)
	case "ingest-dense":
		load.ok = pairs >= minDensePairsPerAction
		load.detail = fmt.Sprintf("%.3f similar pairs per action (want ≥ %.2f)", pairs, minDensePairsPerAction)
	}
	return append(checks, load)
}
