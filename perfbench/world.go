package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"
	"time"

	"vidrec/internal/core"
	"vidrec/internal/dataset"
	"vidrec/internal/feedback"
)

// world is one generated universe plus the traffic the benchmark sends at
// it. Everything in it is a pure function of (workload, seed).
type world struct {
	dir string // TSV files recserve loads with -data
	// actions is day 0 of the stream: what the servers replay at start-up.
	actions []feedback.Action
	// catalog is every video id, for response checks.
	catalog map[string]bool
	// warmup, open and closed are the op sequences of the three traffic
	// phases, drawn from one stream; fresh is the freshness phase's pairs.
	warmup, open, closed []op
	fresh                []op
}

type opKind int

const (
	opRecommend opKind = iota
	opAction
)

// op is one request. A recommend names the user (and a current video for
// the related scenario); an action carries one action of day 1 of the
// stream, already encoded as the TSV body recserve parses.
type op struct {
	kind  opKind
	user  string
	video string
	body  []byte
	// positive marks an action whose feedback weight is above zero: it
	// enters the user's history, so later recommends must exclude it.
	positive bool
}

// maxClosedOps bounds the closed-loop sequence; a phase that exhausts it
// wraps around (actions are then re-posted, which recserve accepts).
const maxClosedOps = 60000

// buildWorld generates the world for w and seed, writes its TSV files under
// workDir, and draws the op sequences for a run of the given length.
func buildWorld(w workload, seed uint64, seconds float64, workDir string) (*world, error) {
	cfg := dataset.DefaultConfig()
	cfg.Seed = seed
	cfg.Users = w.Users
	cfg.Videos = w.Videos
	cfg.Days = 2
	cfg.EventsPerDay = w.EventsPerDay
	d, err := dataset.Generate(cfg)
	if err != nil {
		return nil, err
	}
	all := d.AllActions()
	split := cfg.Start.Add(24 * time.Hour)
	cut := sort.Search(len(all), func(i int) bool { return !all[i].Timestamp.Before(split) })
	wd := &world{
		dir:     filepath.Join(workDir, fmt.Sprintf("%s-s%d", w.Name, seed)),
		actions: all[:cut],
		catalog: make(map[string]bool, len(d.Videos())),
	}
	later := all[cut:]
	if len(wd.actions) == 0 || len(later) == 0 {
		return nil, fmt.Errorf("world %s: empty stream split (%d/%d actions)", w.Name, cut, len(all))
	}
	for _, v := range d.Videos() {
		wd.catalog[v.Meta.ID] = true
	}
	if err := wd.write(d); err != nil {
		return nil, err
	}

	g := newOpGen(w, seed, wd.actions, later)
	wd.warmup = g.take(w.WarmupOps)
	wd.open = g.take(int(math.Round(w.Rate * seconds * w.OpenShare)))
	wd.closed = g.take(maxClosedOps)
	wd.fresh = g.freshPairs(int(math.Round(w.FreshRate * seconds * w.FreshShare)))
	return wd, nil
}

// write stores the world as the three TSV files recgen would produce.
func (wd *world) write(d *dataset.Dataset) error {
	if err := os.MkdirAll(wd.dir, 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	files := []struct {
		name  string
		write func() error
	}{
		{"actions.tsv", func() error { return dataset.WriteActions(&buf, wd.actions) }},
		{"catalog.tsv", func() error { return dataset.WriteCatalog(&buf, d.Videos()) }},
		{"profiles.tsv", func() error { return dataset.WriteProfiles(&buf, d.Users()) }},
	}
	for _, f := range files {
		buf.Reset()
		if err := f.write(); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(wd.dir, f.name), buf.Bytes(), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// opGen draws the op stream. Recommend users come from the world's active
// users (those with at least one positive day-0 action, so a history to
// seed from), ranked by positive-action count for the Zipf skew; related
// videos are drawn by popularity (a uniformly chosen day-0 action's video);
// actions are day 1 of the stream, in order.
type opGen struct {
	w       workload
	rng     *rand.Rand
	users   []string
	userCum []float64 // cumulative Zipf weights; nil for uniform
	world   []feedback.Action
	later   []feedback.Action
	next    int // next day-1 action for an action op
	weights feedback.Weights
}

func newOpGen(w workload, seed uint64, worldActions, later []feedback.Action) *opGen {
	weights := core.DefaultParams().Weights
	counts := make(map[string]int)
	for _, a := range worldActions {
		if weights.Weight(a) > 0 {
			counts[a.UserID]++
		}
	}
	users := make([]string, 0, len(counts))
	for u := range counts {
		users = append(users, u)
	}
	sort.Slice(users, func(i, j int) bool {
		if counts[users[i]] != counts[users[j]] {
			return counts[users[i]] > counts[users[j]]
		}
		return users[i] < users[j]
	})
	g := &opGen{
		w:       w,
		rng:     rand.New(rand.NewPCG(seed, 0x7065726662656e63)),
		users:   users,
		world:   worldActions,
		later:   later,
		weights: weights,
	}
	if w.ZipfUsers {
		g.userCum = make([]float64, len(users))
		var acc float64
		for r := range users {
			acc += math.Pow(float64(r+1), -userZipfExponent)
			g.userCum[r] = acc
		}
	}
	return g
}

func (g *opGen) user() string {
	if g.userCum == nil {
		return g.users[g.rng.IntN(len(g.users))]
	}
	x := g.rng.Float64() * g.userCum[len(g.userCum)-1]
	return g.users[sort.SearchFloat64s(g.userCum, x)]
}

func (g *opGen) take(n int) []op {
	ops := make([]op, n)
	for i := range ops {
		if g.rng.Float64() < g.w.RecommendShare {
			ops[i] = op{kind: opRecommend, user: g.user()}
			if g.rng.Float64() < relatedShare {
				ops[i].video = g.world[g.rng.IntN(len(g.world))].VideoID
			}
			continue
		}
		ops[i] = g.action(g.later[g.next%len(g.later)])
		g.next++
	}
	return ops
}

func (g *opGen) action(a feedback.Action) op {
	var buf bytes.Buffer
	_ = dataset.WriteActions(&buf, []feedback.Action{a}) // a bytes.Buffer write cannot fail
	return op{kind: opAction, user: a.UserID, video: a.VideoID, body: buf.Bytes(), positive: g.weights.Weight(a) > 0}
}

// freshPairs returns n positive-weight actions from the end of day 1 (the
// part the traffic phases reach last): each is posted and then followed by
// a recommend for its user, which must exclude its video.
func (g *opGen) freshPairs(n int) []op {
	out := make([]op, 0, n)
	for i := len(g.later) - 1; i >= 0 && len(out) < n; i-- {
		if a := g.later[i]; g.weights.Weight(a) > 0 {
			out = append(out, g.action(a))
		}
	}
	return out
}
