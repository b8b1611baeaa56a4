package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// opClass labels a request for per-class accounting.
type opClass int

const (
	classRecommend  opClass = iota
	classAction             // an action with positive feedback weight
	classImpression         // an action with zero weight (an impression)
	classFresh              // the recommend that follows a freshness-phase action
	classHealthz            // the generator's self-check target
	numClasses
)

var classNames = [numClasses]string{"recommend", "action", "impression", "fresh", "healthz"}

// phaseStats is the outcome of one traffic phase.
type phaseStats struct {
	name      string
	elapsed   time.Duration
	attempted [numClasses]int
	failed    [numClasses]int
	// latency is measured from each request's due time in open-loop
	// phases and from its send time in closed-loop ones; only successful
	// requests are recorded, failures count as missing every limit.
	latency [numClasses][]time.Duration
	// late is how far after its due time each request was sent (open loop).
	late []time.Duration
	// backlogMax is the most requests ever due but not yet sent.
	backlogMax int64
	// completedInTime counts closed-loop requests that finished before the
	// phase deadline.
	completedInTime int
}

func (p *phaseStats) merge(o *phaseStats) {
	for c := opClass(0); c < numClasses; c++ {
		p.attempted[c] += o.attempted[c]
		p.failed[c] += o.failed[c]
		p.latency[c] = append(p.latency[c], o.latency[c]...)
	}
	p.late = append(p.late, o.late...)
	p.completedInTime += o.completedInTime
}

// total counts the requests attempted in every class.
func (p *phaseStats) total() int {
	n := 0
	for _, a := range p.attempted {
		n += a
	}
	return n
}

// record accounts one request.
func (p *phaseStats) record(c opClass, lat time.Duration, ok bool) {
	p.attempted[c]++
	if !ok {
		p.failed[c]++
		return
	}
	p.latency[c] = append(p.latency[c], lat)
}

// conn is one of the generator's connections: its own transport holding a
// single keep-alive connection, so requests on it are strictly sequential.
type conn struct {
	client *http.Client
	base   string
}

func newConn(base string) *conn {
	tr := &http.Transport{
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}
	return &conn{client: &http.Client{Transport: tr, Timeout: requestTimeout}, base: base}
}

func (c *conn) close() { c.client.CloseIdleConnections() }

// recommendReply is the part of GET /recommend's body the checks read.
type recommendReply struct {
	Videos   []replyEntry `json:"videos"`
	Degraded bool         `json:"degraded"`
}

// replyEntry is one ranked entry (topn.Entry's JSON form).
type replyEntry struct {
	ID    string
	Score float64
}

func (c *conn) get(ctx context.Context, path string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return 0, nil, err
	}
	return c.do(req)
}

func (c *conn) post(ctx context.Context, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "text/tab-separated-values")
	return c.do(req)
}

func (c *conn) do(req *http.Request) (int, []byte, error) {
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer func() { _ = resp.Body.Close() }() // body fully read below
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func recommendPath(user, video string) string {
	p := "/recommend?n=10&user=" + user
	if video != "" {
		p += "&video=" + video
	}
	return p
}

// checker validates responses. It is shared by every connection.
type checker struct {
	catalog map[string]bool

	mu sync.Mutex
	// acted maps a user to the positive actions acknowledged for them and
	// when: a recommend sent afterwards must exclude those videos.
	acted      map[string][]acted // guarded by mu
	violations int                // guarded by mu
	examples   []string           // guarded by mu; the first few violations
	freshness  int                // guarded by mu; exclusion checks made
	degraded   int                // guarded by mu; degraded replies seen
}

type acted struct {
	video string
	at    time.Time
}

func newChecker(catalog map[string]bool) *checker {
	return &checker{catalog: catalog, acted: make(map[string][]acted)}
}

func (ck *checker) violate(format string, args ...any) {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	ck.violations++
	if len(ck.examples) < 5 {
		ck.examples = append(ck.examples, fmt.Sprintf(format, args...))
	}
}

// report prints the check counts and the first violations to stderr.
func (ck *checker) report() {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	fmt.Fprintf(os.Stderr, "  checks: %d violations, %d degraded replies, %d freshness exclusions verified\n", ck.violations, ck.degraded, ck.freshness)
	for _, e := range ck.examples {
		fmt.Fprintln(os.Stderr, "   ", e)
	}
}

func (ck *checker) violationCount() int {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	return ck.violations
}

// ackAction records a positive action acknowledged at t.
func (ck *checker) ackAction(user, video string, t time.Time) {
	ck.mu.Lock()
	ck.acted[user] = append(ck.acted[user], acted{video, t})
	ck.mu.Unlock()
}

// recommend checks one /recommend reply body for a request sent at sent.
func (ck *checker) recommend(user, video string, sent time.Time, body []byte) bool {
	var r recommendReply
	if err := json.Unmarshal(body, &r); err != nil {
		ck.violate("recommend %s: bad body: %v", user, err)
		return false
	}
	return ck.reply(user, video, sent, r)
}

// reply checks one recommendation list: at most n distinct catalog ids
// with finite scores, never the current video, and never a video the user
// had a positive action on that was acknowledged before the request was
// sent. A degraded reply (the hot-list fallback served when the
// personalized path failed on a storage error) is a failed request: it is
// counted and rejected, so a fast fallback never enters the latency
// samples.
func (ck *checker) reply(user, video string, sent time.Time, r recommendReply) bool {
	if r.Degraded {
		ck.mu.Lock()
		ck.degraded++
		ck.mu.Unlock()
		return false
	}
	if len(r.Videos) > listLen {
		ck.violate("recommend %s: %d entries for n=%d", user, len(r.Videos), listLen)
		return false
	}
	seen := make(map[string]bool, len(r.Videos))
	for _, e := range r.Videos {
		switch {
		case !ck.catalog[e.ID]:
			ck.violate("recommend %s: %q is not a catalog id", user, e.ID)
			return false
		case seen[e.ID]:
			ck.violate("recommend %s: %q listed twice", user, e.ID)
			return false
		case math.IsNaN(e.Score) || math.IsInf(e.Score, 0):
			ck.violate("recommend %s: non-finite score for %q", user, e.ID)
			return false
		case e.ID == video:
			ck.violate("recommend %s: current video %q recommended", user, video)
			return false
		}
		seen[e.ID] = true
	}
	// Elements below len are never rewritten, so the slice header read
	// under the lock stays valid while other connections append.
	ck.mu.Lock()
	past := ck.acted[user]
	ck.mu.Unlock()
	checked := 0
	for _, a := range past {
		if !a.at.Before(sent) {
			continue
		}
		checked++
		if seen[a.video] {
			ck.violate("recommend %s: %q served after the user's positive action on it was acknowledged", user, a.video)
			return false
		}
	}
	ck.mu.Lock()
	ck.freshness += checked
	ck.mu.Unlock()
	return true
}

// loadgen drives one deployment.
type loadgen struct {
	conns []*conn
	ck    *checker
	// spans, when non-nil, receives one span per request (traced run).
	spans *spanLog
}

func newLoadgen(base string, ck *checker, spans *spanLog) *loadgen {
	lg := &loadgen{ck: ck, spans: spans}
	for i := 0; i < conns; i++ {
		lg.conns = append(lg.conns, newConn(base))
	}
	return lg
}

func (lg *loadgen) close() {
	for _, c := range lg.conns {
		c.close()
	}
}

// exec sends one op and reports whether it succeeded and passed its
// checks, and when its reply had been read in full: the latency end point,
// which leaves the generator's own checking out of the measurement.
func (lg *loadgen) exec(ctx context.Context, c *conn, o op, class opClass) (ok bool, done time.Time) {
	sent := time.Now()
	switch {
	case o.kind == opAction:
		code, body, err := c.post(ctx, "/action", o.body)
		done = time.Now()
		if err != nil || code != http.StatusOK {
			return false, done
		}
		if !strings.Contains(string(body), `"ingested":1`) {
			lg.ck.violate("action %s/%s: unexpected reply %q", o.user, o.video, body)
			return false, done
		}
		if o.positive {
			lg.ck.ackAction(o.user, o.video, done)
		}
		return true, done
	case class == classHealthz:
		code, _, err := c.get(ctx, "/healthz")
		return err == nil && code == http.StatusOK, time.Now()
	default:
		code, body, err := c.get(ctx, recommendPath(o.user, o.video))
		done = time.Now()
		if err != nil || code != http.StatusOK {
			return false, done
		}
		return lg.ck.recommend(o.user, o.video, sent, body), done
	}
}

// classOf separates positive actions, which run the whole ingest path
// (model step, history, hot lists, similar pairs), from impressions, which
// only move the model's global mean: mixed in one class their two latency
// modes would put the class's upper percentiles on whichever side the
// seed's impression share happens to favour.
func classOf(o op) opClass {
	switch {
	case o.kind == opRecommend:
		return classRecommend
	case o.positive:
		return classAction
	default:
		return classImpression
	}
}

// preciseSleeper locks the calling goroutine to its OS thread and sets
// that thread's timer slack to 1µs, so sleepUntil wakes within microseconds
// of a due time. Go's runtime timers, which the netpoller waits on with
// millisecond resolution, made the same generator run about half a
// millisecond late at the median. The caller must runtime.UnlockOSThread
// when done.
func preciseSleeper() {
	runtime.LockOSThread()
	const prSetTimerslack = 29
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerslack, 1000, 0) // best effort: default slack is 50µs
}

// sleepUntil blocks the calling thread until t with nanosleep.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep loops and resumes
	}
}

// openMode selects what an open-loop phase sends.
type openMode int

const (
	modeOps     openMode = iota // each op as drawn
	modeHealthz                 // GET /healthz in place of every op
	modeFresh                   // each action, then a recommend for its user
)

// openLoop sends ops on a fixed schedule: op i is due at start + i/rate, and
// assign decides which connection sends it. Each connection sleeps until its
// next op's due time itself — no dispatcher hands requests over — and sends
// at once when it is already late, so a stall delays the ops behind it and
// that wait is counted: latency runs from the due time. In modeFresh every
// op is an action followed at once by a recommend for its user, which must
// exclude the action's video.
func (lg *loadgen) openLoop(ctx context.Context, name string, ops []op, rate float64, mode openMode) *phaseStats {
	total := &phaseStats{name: name}
	if len(ops) == 0 {
		return total
	}
	var sent atomic.Int64
	var backlogMax atomic.Int64
	parts := make([]*phaseStats, len(lg.conns))
	queues := assign(ops, len(lg.conns), mode)
	start := time.Now().Add(2 * time.Millisecond)
	var wg sync.WaitGroup
	for ci := range lg.conns {
		ci := ci
		parts[ci] = &phaseStats{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			preciseSleeper()
			defer runtime.UnlockOSThread()
			st, c := parts[ci], lg.conns[ci]
			for _, i := range queues[ci] {
				if ctx.Err() != nil {
					return
				}
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				sleepUntil(due)
				now := time.Now()
				n := sent.Add(1)
				dueCount := int64(now.Sub(start).Seconds()*rate) + 1
				if dueCount > int64(len(ops)) {
					dueCount = int64(len(ops))
				}
				for b := dueCount - n; ; {
					m := backlogMax.Load()
					if b <= m || backlogMax.CompareAndSwap(m, b) {
						break
					}
				}
				st.late = append(st.late, now.Sub(due))
				o := ops[i]
				class := classOf(o)
				if mode == modeHealthz {
					class = classHealthz
				}
				ok, done := lg.exec(ctx, c, o, class)
				st.record(class, done.Sub(due), ok)
				lg.spans.request(classNames[class], due, now, done, ok)
				if mode == modeFresh && ok {
					fsent := time.Now()
					fok, fdone := lg.exec(ctx, c, op{kind: opRecommend, user: o.user}, classFresh)
					st.record(classFresh, fdone.Sub(fsent), fok)
					lg.spans.request(classNames[classFresh], fsent, fsent, fdone, fok)
				}
			}
		}()
	}
	wg.Wait()
	for _, p := range parts {
		total.merge(p)
	}
	total.elapsed = time.Since(start)
	total.backlogMax = backlogMax.Load()
	return total
}

// assign splits op indexes among n connections. When the ops mix
// recommends and actions, recommends go to connection 0 and actions to the
// others, so a recommend never waits at the generator behind an action sent
// for some other user; otherwise ops go round-robin.
func assign(ops []op, n int, mode openMode) [][]int {
	queues := make([][]int, n)
	mixed := false
	if mode == modeOps && n > 1 {
		var kinds [2]bool
		for _, o := range ops {
			kinds[o.kind] = true
		}
		mixed = kinds[opRecommend] && kinds[opAction]
	}
	for i, o := range ops {
		q := i % n
		if mixed {
			q = 0
			if o.kind == opAction {
				q = 1 + i%(n-1)
			}
		}
		queues[q] = append(queues[q], i)
	}
	return queues
}

// closedLoop keeps every connection busy: each sends its next op as soon as
// the previous one completes, starting at ops[from] and wrapping around,
// until dur has passed (or, with dur zero, until every op has been sent
// once). Latency runs from the send time.
func (lg *loadgen) closedLoop(ctx context.Context, name string, ops []op, from int, dur time.Duration) *phaseStats {
	total := &phaseStats{name: name}
	if len(ops) == 0 {
		return total
	}
	var next atomic.Int64
	parts := make([]*phaseStats, len(lg.conns))
	start := time.Now()
	end := start.Add(dur)
	var wg sync.WaitGroup
	for ci := range lg.conns {
		ci := ci
		parts[ci] = &phaseStats{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, c := parts[ci], lg.conns[ci]
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if dur == 0 && i >= len(ops) {
					return
				}
				sentAt := time.Now()
				if dur > 0 && !sentAt.Before(end) {
					return
				}
				o := ops[(from+i)%len(ops)]
				class := classOf(o)
				ok, done := lg.exec(ctx, c, o, class)
				st.record(class, done.Sub(sentAt), ok)
				lg.spans.request(classNames[class], sentAt, sentAt, done, ok)
				if ok && (dur == 0 || !done.After(end)) {
					st.completedInTime++
				}
			}
		}()
	}
	wg.Wait()
	for _, p := range parts {
		total.merge(p)
	}
	total.elapsed = time.Since(start)
	if dur > 0 {
		total.elapsed = dur
	}
	return total
}

// percentile returns the nearest-rank q-quantile of ds in microseconds
// (0 for an empty sample). ds is sorted in place.
func percentile(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	idx := int(math.Ceil(q*float64(len(ds)))) - 1
	if idx < 0 {
		idx = 0
	}
	return float64(ds[idx].Nanoseconds()) / 1e3
}
