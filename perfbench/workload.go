package main

import (
	"fmt"
	"time"
)

// workload is one named traffic mix over one world shape. The fields are
// the whole definition; README.md lists the same values.
type workload struct {
	Name string
	// World sizes the generated universe; day 0 of the stream is the world
	// replayed at start-up, day 1 supplies the actions the traffic posts.
	Users, Videos, EventsPerDay int
	// NetKV runs recserve -kv against a kvserver subprocess instead of the
	// embedded store.
	NetKV bool
	// RecommendShare is the share of ops that are GET /recommend; the rest
	// are POST /action.
	RecommendShare float64
	// ZipfUsers skews recommend users: the world's active users, ranked by
	// positive day-0 actions, are drawn with weight r^-userZipfExponent for
	// rank r = 1, 2, …; otherwise they are drawn uniformly.
	ZipfUsers bool
	// Rate is the fixed open-loop rate in ops/s, FreshRate the rate of the
	// action→recommend freshness pairs.
	Rate, FreshRate float64
	// WarmupOps are sent closed-loop before anything is timed.
	WarmupOps int
	// OpenShare, ClosedShare and FreshShare split --seconds between the
	// open-loop, closed-loop and freshness phases.
	OpenShare, ClosedShare, FreshShare float64
}

// Shared request shape: every recommend asks for n entries, and this share
// of recommends carries video= (a catalog id drawn by popularity).
const (
	listLen      = 10
	relatedShare = 0.2
	// userZipfExponent is the skew of ZipfUsers: classic Zipf. Measured
	// on serve-warm (traced runs, seeds 7–9, 6 000 warm-up ops), the
	// objcache hit ratio was 0.960–0.963 at 0.8, 0.974–0.976 at 1.0 and
	// 0.983–0.985 at 1.2; drawing users by activity instead (the user of a
	// random positive action) gave 0.942, below the serve-warm layer-load
	// check, because that working set outgrows the cache's default 32k
	// entries. With serve-warm's 24 000 warm-up ops, 1.0 reads 0.986–0.987.
	userZipfExponent = 1.0
	// conns is the generator's connection count (nproc on the reference box).
	conns = 2
	// setups is how many times each run launches the servers; setup_s is
	// the median.
	setups = 3
	// calibrateSeconds is the /healthz phase that measures the generator's
	// own lateness at the workload's rate.
	calibrateSeconds = 0.5
	// requestTimeout fails a request that has not completed.
	requestTimeout = 2 * time.Second
)

var workloads = []workload{
	{
		Name:  "serve-warm",
		Users: 20000, Videos: 5000, EventsPerDay: 20000,
		RecommendShare: 1, ZipfUsers: true,
		Rate: 1500, FreshRate: 300,
		WarmupOps:   24000,
		OpenShare:   0.4,
		ClosedShare: 0.35,
		FreshShare:  0.25,
	},
	{
		Name:  "mixed-netkv",
		Users: 20000, Videos: 5000, EventsPerDay: 6000,
		NetKV:          true,
		RecommendShare: 0.75,
		Rate:           600, FreshRate: 100,
		WarmupOps:   1500,
		OpenShare:   0.55,
		ClosedShare: 0.35,
		FreshShare:  0.1,
	},
	{
		Name:  "ingest-dense",
		Users: 500, Videos: 600, EventsPerDay: 6000,
		RecommendShare: 0.1,
		Rate:           600, FreshRate: 100,
		WarmupOps:   1500,
		OpenShare:   0.55,
		ClosedShare: 0.35,
		FreshShare:  0.1,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}
