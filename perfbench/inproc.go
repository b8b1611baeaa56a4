package main

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"vidrec/internal/core"
	"vidrec/internal/dataset"
	"vidrec/internal/demographic"
	"vidrec/internal/kvstore"
	"vidrec/internal/recommend"
	"vidrec/internal/simtable"
	"vidrec/internal/storm"
	"vidrec/internal/topn"
	"vidrec/internal/topology"
)

// figure2Bolts are the six bolts of the paper's Figure 2 topology.
var figure2Bolts = []string{
	topology.ComputeMFName, topology.MFStorageName, topology.UserHistoryName,
	topology.GetItemPairsName, topology.ItemPairSimName, topology.ResultStorageName,
}

// stage names the read-only serve stages the traced run replays, in the
// order Recommend runs them, with the metric each one's median feeds.
type stage int

const (
	stageGroupOf stage = iota
	stageWatched
	stageSimilar
	stageHot
	stageScore
	stageRank
	numStages
)

var stageMetrics = [numStages]string{
	"demographic.group_of_p50_us",
	"history.watched_p50_us",
	"simtable.similar_ids_p50_us",
	"demographic.hot_into_p50_us",
	"core.score_p50_us",
	"topn.rank_p50_us",
}

var stageSpans = [numStages]string{
	"demographic.GroupOf", "history.Watched", "simtable.SimilarIDs",
	"demographic.HotInto", "core.ScoreCandidates", "topn.Ranker",
}

// inprocResult is what the in-process replay measured.
type inprocResult struct {
	metrics    map[string]float64
	attempted  int
	failed     int
	violations int
}

// inproc replays one world and the run's op sequences against a
// recommend.System built in this process, with every layer timed from
// outside around the calls into its public functions.
type inproc struct {
	wd    *world
	spans *spanLog
	ck    *checker

	sys   *recommend.System
	store *timingStore

	serve, serveTraced    []time.Duration
	ingest                []time.Duration // untraced, positive actions
	serveKV, ingestKV     time.Duration   // store time inside traced calls
	serveBusy, ingestBusy time.Duration   // total time of traced calls
	stages                [numStages][]time.Duration
	scored                int
	replays               int
	candidates, seeds     int
	hotMerged, degraded   int
	recommends, actions   int
	served                int // recommends answered by Recommend itself
	failed                int

	// replay scratch, reused like Recommend's pooled scratch.
	flat    []string
	toScore []string
	hot     []topn.Entry
	ranker  *topn.Ranker
}

// runInProcess builds the system (over a kvserver subprocess when the
// workload stores over the network), replays the world through the Figure 2
// topology, then replays warm-up, open-loop and freshness ops.
func runInProcess(ctx context.Context, w workload, wd *world, binDir string, spans *spanLog) (*inprocResult, error) {
	var base kvstore.Store
	if w.NetKV {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		kv, err := startProc(binDir, filepath.Join(wd.dir, "trace-kvserver.log"), "kvserver", "-addr", addr, "-report", "0")
		if err != nil {
			return nil, err
		}
		defer kv.stop()
		if err := waitTCP(ctx, addr, kv); err != nil {
			return nil, err
		}
		cli, err := kvstore.DialContext(ctx, addr)
		if err != nil {
			return nil, err
		}
		defer func() { _ = cli.Close() }() // the kvserver is stopped right after
		base = kvstore.NewResilient(cli, kvstore.DefaultResilienceConfig(), 1)
	} else {
		base = kvstore.NewLocal(64)
	}
	ip := &inproc{wd: wd, spans: spans, ck: newChecker(wd.catalog), ranker: topn.NewRanker(listLen)}
	ip.store = newTimingStore(base, spans)
	sys, err := recommend.NewSystem(ip.store, core.DefaultParams(), simtable.DefaultConfig(), recommend.DefaultOptions())
	if err != nil {
		return nil, err
	}
	ip.sys = sys
	m := make(map[string]float64)
	if err := ip.setup(ctx, m); err != nil {
		return nil, err
	}

	for _, o := range wd.warmup {
		ip.warm(ctx, o)
	}
	// objcache ratios cover the open-loop ops: the workload's own traffic.
	// The freshness pairs that follow miss the cache by design.
	before := sys.Cache().Snapshot()
	nRec, nAct := 0, 0
	for _, o := range wd.open {
		// Rotate the modes within each op class, so every mode samples the
		// same traffic and state: recommends go untraced, traced, and as a
		// stage replay; actions untraced and traced.
		if o.kind == opRecommend {
			switch nRec % 3 {
			case 0:
				ip.recommend(ctx, o, false)
			case 1:
				ip.recommend(ctx, o, true)
			default:
				ip.stageOp(ctx, o)
			}
			nRec++
		} else {
			ip.action(ctx, o, nAct%2 == 1)
			nAct++
		}
	}
	after := sys.Cache().Snapshot()
	openOps := float64(len(wd.open))
	m["objcache.hit_ratio"] = ratio(float64(after.Hits-before.Hits), float64(after.Hits-before.Hits+after.Misses-before.Misses))
	m["objcache.misses_per_op"] = ratio(float64(after.Misses-before.Misses), openOps)
	m["objcache.invalidations_per_action"] = ratio(float64(after.Invalidations-before.Invalidations), float64(nAct))
	m["objcache.evictions_per_op"] = ratio(float64(after.Evictions-before.Evictions), openOps)
	for i, o := range wd.fresh {
		if ip.action(ctx, o, i%2 == 1) {
			ip.freshRecommend(ctx, o)
		}
	}
	ip.finish(m)
	return &inprocResult{
		metrics:    m,
		attempted:  ip.recommends + ip.actions,
		failed:     ip.failed,
		violations: ip.ck.violationCount(),
	}, nil
}

// setup loads the world the way recserve does (TSV catalog and profiles,
// then the topology replay of day 0) and records the topology's counters.
func (ip *inproc) setup(ctx context.Context, m map[string]float64) error {
	sys := ip.sys
	videos, err := readTSV(filepath.Join(ip.wd.dir, "catalog.tsv"), dataset.ReadCatalog)
	if err != nil {
		return err
	}
	for _, v := range videos {
		if err := sys.Catalog.Put(ctx, v); err != nil {
			return err
		}
	}
	profiles, err := readTSV(filepath.Join(ip.wd.dir, "profiles.tsv"), dataset.ReadProfiles)
	if err != nil {
		return err
	}
	for _, p := range profiles {
		if err := sys.Profiles.Put(ctx, p); err != nil {
			return err
		}
	}
	topo, err := topology.Build(sys,
		func(int) topology.Source { return topology.SliceSource(ip.wd.actions) },
		topology.DefaultParallelism())
	if err != nil {
		return err
	}
	// Sample every bolt's queue depth while the replay runs.
	depthMax := make(map[string]int, len(figure2Bolts))
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			for _, b := range figure2Bolts {
				if s, err := topo.MetricsFor(b); err == nil && s.QueueDepth > depthMax[b] {
					depthMax[b] = s.QueueDepth
				}
			}
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	start := time.Now()
	runErr := topo.Run(ctx)
	end := time.Now()
	close(stop)
	wg.Wait()
	if runErr != nil {
		return runErr
	}
	tr := ip.spans.newTrace()
	ip.spans.add(tr, tr, 0, "topology.Run", start, end, false)
	snap := func(name string) storm.MetricsSnapshot {
		s, _ := topo.MetricsFor(name) // names come from the topology package
		return s
	}
	actions := float64(snap(topology.SpoutName).Emitted)
	m["topology.actions_per_s"] = actions / end.Sub(start).Seconds()
	// GetItemPairs emits each pair once per direction.
	m["storm.pairs_per_action"] = float64(snap(topology.GetItemPairsName).Emitted) / 2 / actions
	for _, b := range figure2Bolts {
		s := snap(b)
		m["storm."+b+".executed"] = float64(s.Executed)
		m["storm."+b+".failed"] = float64(s.Failed)
		m["storm."+b+".queue_depth_max"] = float64(depthMax[b])
	}
	return nil
}

func readTSV[T any](path string, parse func(io.Reader) ([]T, error)) ([]T, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() { _ = f.Close() }() // read-only
	return parse(f)
}

// freshRecommend follows a freshness-pair action with a recommend for its
// user, which must exclude the action's video. It is a check only: nothing
// it reads or spends enters the serve metrics.
func (ip *inproc) freshRecommend(ctx context.Context, o op) {
	ip.recommends++
	start := time.Now()
	res, err := ip.sys.Recommend(ctx, recommend.Request{UserID: o.user, N: listLen})
	if err != nil || !ip.ck.reply(o.user, "", start, replyOf(res)) {
		ip.failed++
	}
}

func replyOf(res *recommend.Result) recommendReply {
	r := recommendReply{Degraded: res.Degraded}
	for _, e := range res.Videos {
		r.Videos = append(r.Videos, replyEntry{e.ID, e.Score})
	}
	return r
}

// warm runs one warm-up op, uncounted and unchecked.
func (ip *inproc) warm(ctx context.Context, o op) {
	if o.kind == opAction {
		if acts, err := dataset.ReadActions(bytes.NewReader(o.body)); err == nil && len(acts) == 1 {
			_ = ip.sys.Ingest(ctx, acts[0]) // a failure shows in the measured ops that follow
		}
		return
	}
	_, _ = ip.sys.Recommend(ctx, recommend.Request{UserID: o.user, CurrentVideo: o.video, N: listLen}) // as above
}

func (ip *inproc) action(ctx context.Context, o op, traced bool) bool {
	ip.actions++
	acts, err := dataset.ReadActions(bytes.NewReader(o.body))
	if err != nil || len(acts) != 1 {
		ip.failed++
		return false
	}
	oc := &opCtx{scope: scopeIngest, traced: traced}
	if traced {
		oc.trace = ip.spans.newTrace()
		oc.span = oc.trace
	}
	start := time.Now()
	err = ip.sys.Ingest(withOp(ctx, oc), acts[0])
	end := time.Now()
	if err != nil {
		ip.failed++
		return false
	}
	d := end.Sub(start)
	if traced {
		ip.ingestKV += oc.kvTime
		ip.ingestBusy += d
		ip.spans.add(oc.trace, oc.span, 0, "recommend.Ingest", start, end, false)
	} else if o.positive {
		// Like the HTTP run's action class: impressions are left out.
		ip.ingest = append(ip.ingest, d)
	}
	if o.positive {
		ip.ck.ackAction(o.user, o.video, end)
	}
	return true
}

func (ip *inproc) recommend(ctx context.Context, o op, traced bool) {
	ip.recommends++
	req := recommend.Request{UserID: o.user, CurrentVideo: o.video, N: listLen}
	oc := &opCtx{scope: scopeServe, traced: traced}
	if traced {
		oc.trace = ip.spans.newTrace()
		oc.span = oc.trace
	}
	start := time.Now()
	res, err := ip.sys.Recommend(withOp(ctx, oc), req)
	end := time.Now()
	if err != nil {
		ip.failed++
		return
	}
	d := end.Sub(start)
	if traced {
		ip.serveTraced = append(ip.serveTraced, d)
		ip.serveKV += oc.kvTime
		ip.serveBusy += d
		ip.spans.add(oc.trace, oc.span, 0, "recommend.Recommend", start, end, false)
	} else {
		ip.serve = append(ip.serve, d)
	}
	ip.served++
	ip.candidates += res.Candidates
	ip.seeds += res.Seeds
	ip.hotMerged += res.HotMerged
	if res.Degraded {
		ip.degraded++
	}
	if !ip.ck.reply(o.user, o.video, start, replyOf(res)) {
		ip.failed++
	}
}

// stageOp serves a recommend op by calling Recommend's read-only stages one
// by one instead of Recommend itself. It takes the place of a Recommend call
// in the op sequence, so the stages run in the same state — CPU caches
// included — that a Recommend call meets, rather than right after one.
func (ip *inproc) stageOp(ctx context.Context, o op) {
	ip.recommends++
	req := recommend.Request{UserID: o.user, CurrentVideo: o.video, N: listLen}
	if err := ip.replayStages(ctx, req, ip.spans.newTrace()); err != nil {
		ip.failed++
	}
}

// replayStages runs Recommend's read-only stages for req, with the
// arguments Recommend itself passes, and times each call. The candidate
// dedup and the hot filter between the calls are Recommend's own work and
// stay outside every stage.
func (ip *inproc) replayStages(ctx context.Context, req recommend.Request, trace uint64) error {
	sys := ip.sys
	opts := sys.Options()
	now := sys.Now()
	replayStart := time.Now()
	parent := ip.spans.newTrace()
	sctx := withOp(ctx, &opCtx{scope: scopeStage, traced: true, trace: trace, span: parent})
	var times [numStages]time.Duration
	var t0 time.Time
	begin := func() { t0 = time.Now() }
	end := func(s stage, err error) error {
		t1 := time.Now()
		times[s] = t1.Sub(t0)
		ip.spans.add(trace, 0, parent, stageSpans[s], t0, t1, err != nil)
		return err
	}

	begin()
	group, err := sys.Profiles.GroupOf(sctx, req.UserID)
	_ = end(stageGroupOf, err)
	if err != nil || group == "" {
		group = demographic.GlobalGroup
	}

	begin()
	watched, histSet, err := sys.History.Watched(sctx, req.UserID, opts.HistoryLimit)
	if end(stageWatched, err) != nil {
		return err
	}

	seeds := watched
	if req.CurrentVideo != "" {
		seeds = []string{req.CurrentVideo}
	} else if len(seeds) > opts.SeedCount {
		seeds = seeds[:opts.SeedCount]
	}
	tables, err := sys.Tables.For(group)
	if err != nil {
		return err
	}
	begin()
	flat, err := tables.SimilarIDs(sctx, seeds, opts.CandidatesPerSeed, now, ip.flat[:0])
	if end(stageSimilar, err) != nil {
		return err
	}
	ip.flat = flat

	excluded := make(map[string]bool, len(histSet)+1)
	for _, v := range watched {
		excluded[v] = true
	}
	for v := range histSet {
		excluded[v] = true
	}
	if req.CurrentVideo != "" {
		excluded[req.CurrentVideo] = true
	}
	inCand := make(map[string]bool, len(flat))
	toScore := ip.toScore[:0]
	for _, id := range flat {
		if excluded[id] || inCand[id] {
			continue
		}
		inCand[id] = true
		toScore = append(toScore, id)
		if len(toScore) >= opts.MaxCandidates {
			break
		}
	}
	numCand := len(toScore)

	k := req.N + len(excluded)
	begin()
	hot, err := sys.Hot.HotInto(sctx, group, k, now, ip.hot[:0])
	if err == nil && len(hot) == 0 && group != demographic.GlobalGroup {
		hot, err = sys.Hot.HotInto(sctx, demographic.GlobalGroup, k, now, hot)
	}
	if end(stageHot, err) != nil {
		return err
	}
	ip.hot = hot
	for _, e := range hot {
		if !excluded[e.ID] && !inCand[e.ID] {
			toScore = append(toScore, e.ID)
		}
	}
	ip.toScore = toScore

	model, err := sys.Models.For(group)
	if err != nil {
		return err
	}
	begin()
	scores, err := model.ScoreCandidates(sctx, req.UserID, toScore)
	if end(stageScore, err) != nil {
		return err
	}

	begin()
	ip.ranker.Reset()
	for i := 0; i < numCand; i++ {
		ip.ranker.Push(toScore[i], scores[i])
	}
	_ = ip.ranker.All()
	_ = end(stageRank, nil)

	ip.spans.add(trace, parent, trace, "stage-replay", replayStart, time.Now(), false)
	for s := range times {
		ip.stages[s] = append(ip.stages[s], times[s])
	}
	ip.scored += len(toScore)
	ip.replays++
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// finish turns the counters into the per-layer metrics.
func (ip *inproc) finish(m map[string]float64) {
	served, act := float64(ip.served), float64(ip.actions)
	serveP50 := percentile(ip.serve, 0.5)
	m["recommend.serve_p50_us"] = serveP50
	m["recommend.serve_p90_us"] = percentile(ip.serve, 0.9)
	m["recommend.candidates_mean"] = ratio(float64(ip.candidates), served)
	m["recommend.seeds_mean"] = ratio(float64(ip.seeds), served)
	m["recommend.hot_merged_mean"] = ratio(float64(ip.hotMerged), served)
	m["recommend.degraded"] = float64(ip.degraded)
	m["recommend.ingest_p50_us"] = percentile(ip.ingest, 0.5)
	m["recommend.ingest_p90_us"] = percentile(ip.ingest, 0.9)
	m["trace.overhead_p50_us"] = percentile(ip.serveTraced, 0.5) - serveP50

	var stageSum float64
	for s := stage(0); s < numStages; s++ {
		p := percentile(ip.stages[s], 0.5)
		m[stageMetrics[s]] = p
		stageSum += p
	}
	m["recommend.stage_sum_ratio"] = ratio(stageSum, serveP50)
	m["core.scored_mean"] = ratio(float64(ip.scored), float64(ip.replays))

	st := ip.store
	for _, op := range []kvOp{kvGet, kvMGet, kvSet, kvUpdate} {
		calls := st.calls[scopeServe][op] + st.calls[scopeIngest][op]
		m["kvstore."+kvOpNames[op]+".per_op"] = ratio(float64(calls), served+act)
		m["kvstore."+kvOpNames[op]+".p50_us"] = percentile(st.lat[op], 0.5)
	}
	mgets := st.calls[scopeServe][kvMGet] + st.calls[scopeIngest][kvMGet]
	m["kvstore.mget.keys_mean"] = ratio(float64(st.mgetKeys), float64(mgets))
	m["kvstore.errors"] = float64(st.errors)
	m["kvstore.busy_share_serve"] = ratio(float64(ip.serveKV), float64(ip.serveBusy))
	m["kvstore.busy_share_ingest"] = ratio(float64(ip.ingestKV), float64(ip.ingestBusy))
	for _, ns := range writeNamespaces {
		m["kvstore.writes_per_action."+ns] = ratio(float64(st.writes[ns]), act)
	}
}
