package main

import (
	"context"
	"strings"
	"time"

	"vidrec/internal/kvstore"
)

// opScope says which in-process call a store operation serves.
type opScope int

const (
	scopeServe  opScope = iota // inside sys.Recommend
	scopeIngest                // inside sys.Ingest
	scopeStage                 // inside a serve-stage replay
	numScopes
)

// opCtx rides the context of one measured call. The timing store counts
// every operation under it and, when traced is set, also times each one,
// records it as a child span of span and adds its time to kvTime.
type opCtx struct {
	scope  opScope
	traced bool
	trace  uint64
	span   uint64
	kvTime time.Duration
}

type opCtxKey struct{}

func withOp(ctx context.Context, oc *opCtx) context.Context {
	return context.WithValue(ctx, opCtxKey{}, oc)
}

type kvOp int

const (
	kvGet kvOp = iota
	kvMGet
	kvSet
	kvUpdate
	kvDelete
	numKVOps
)

var kvOpNames = [numKVOps]string{"get", "mget", "set", "update", "delete"}

// writeNamespaces classify written keys by the store namespace's kind; the
// group part of per-group namespaces is dropped. "other" takes the rest.
var writeNamespaces = []string{"hist", "hot", "uv", "ub", "iv", "ib", "meta", "sim", "other"}

// nsKind maps a key to its entry in writeNamespaces. Keys are
// "<namespace>:<id>": "sys.hist:u00001", "sys.hot:m:18-24",
// "sys/global.iv:v00042", "sys/f:25-34:sec.sim:v00042".
func nsKind(key string) string {
	var ns string
	switch {
	case strings.HasPrefix(key, "sys."):
		ns = key[len("sys."):]
		if i := strings.IndexByte(ns, ':'); i >= 0 {
			ns = ns[:i]
		}
	case strings.HasPrefix(key, "sys/"):
		i := strings.LastIndexByte(key, ':')
		if i < 0 {
			return "other"
		}
		ns = key[:i]
		ns = ns[strings.LastIndexByte(ns, '.')+1:]
	default:
		return "other"
	}
	for _, k := range writeNamespaces {
		if k == ns {
			return k
		}
	}
	return "other"
}

// timingStore is the kvstore.Store decorator the traced run passes into
// recommend.NewSystem. The system wraps it with its decoded-value cache, so
// it sees only cache misses and writes. Operations without an opCtx (the
// start-up replay, the warm-up) pass straight through. The measured replay
// runs on one goroutine, so the counters need no locking.
type timingStore struct {
	inner kvstore.Store
	spans *spanLog

	calls    [numScopes][numKVOps]int
	lat      [numKVOps][]time.Duration // traced serve and ingest calls
	mgetKeys int                       // keys over serve and ingest MGets
	errors   int
	writes   map[string]int // ingest-scope writes by namespace kind
}

func newTimingStore(inner kvstore.Store, spans *spanLog) *timingStore {
	return &timingStore{inner: inner, spans: spans, writes: make(map[string]int)}
}

// begin counts op under ctx's opCtx and returns that opCtx (nil when the
// call is not measured) and, for a traced call, its start time.
func (s *timingStore) begin(ctx context.Context, op kvOp, key string, keys int) (*opCtx, time.Time) {
	oc, _ := ctx.Value(opCtxKey{}).(*opCtx)
	if oc == nil {
		return nil, time.Time{}
	}
	s.calls[oc.scope][op]++
	if op == kvMGet && oc.scope != scopeStage {
		s.mgetKeys += keys
	}
	if oc.scope == scopeIngest && (op == kvSet || op == kvUpdate || op == kvDelete) {
		s.writes[nsKind(key)]++
	}
	if !oc.traced {
		return oc, time.Time{}
	}
	return oc, time.Now()
}

// end closes an operation begin opened.
func (s *timingStore) end(oc *opCtx, op kvOp, start time.Time, err error) {
	if oc == nil {
		return
	}
	if err != nil {
		s.errors++
	}
	if !oc.traced {
		return
	}
	now := time.Now()
	if d := now.Sub(start); oc.scope != scopeStage {
		s.lat[op] = append(s.lat[op], d)
		oc.kvTime += d
	}
	s.spans.add(oc.trace, 0, oc.span, "kvstore."+kvOpNames[op], start, now, err != nil)
}

func (s *timingStore) Get(ctx context.Context, key string) ([]byte, bool, error) {
	oc, t := s.begin(ctx, kvGet, key, 1)
	v, ok, err := s.inner.Get(ctx, key)
	s.end(oc, kvGet, t, err)
	return v, ok, err
}

func (s *timingStore) MGet(ctx context.Context, keys []string) ([][]byte, error) {
	oc, t := s.begin(ctx, kvMGet, "", len(keys))
	v, err := s.inner.MGet(ctx, keys)
	s.end(oc, kvMGet, t, err)
	return v, err
}

func (s *timingStore) Set(ctx context.Context, key string, val []byte) error {
	oc, t := s.begin(ctx, kvSet, key, 1)
	err := s.inner.Set(ctx, key, val)
	s.end(oc, kvSet, t, err)
	return err
}

func (s *timingStore) Update(ctx context.Context, key string, fn func(cur []byte, exists bool) ([]byte, bool)) error {
	oc, t := s.begin(ctx, kvUpdate, key, 1)
	err := s.inner.Update(ctx, key, fn)
	s.end(oc, kvUpdate, t, err)
	return err
}

func (s *timingStore) Delete(ctx context.Context, key string) (bool, error) {
	oc, t := s.begin(ctx, kvDelete, key, 1)
	ok, err := s.inner.Delete(ctx, key)
	s.end(oc, kvDelete, t, err)
	return ok, err
}

func (s *timingStore) Len(ctx context.Context) (int, error) { return s.inner.Len(ctx) }
