package solver

import (
	"container/list"
	"context"
	"runtime"
	"strings"
	"sync"

	"respect/internal/graph"
	"respect/internal/sched"
)

// cacheKey identifies one scheduling instance: the graph's structural
// fingerprint plus the pipeline length.
type cacheKey struct {
	fp        uint64
	numStages int
}

// lru is a concurrency-safe fixed-capacity LRU table of memoized races,
// keyed by cacheKey. Stored results are shared by every hit; Engine owns
// their copy semantics.
type lru struct {
	cap int

	mu        sync.Mutex
	entries   map[cacheKey]*list.Element
	order     *list.List // front = most recently used
	hits      uint64
	misses    uint64
	evictions uint64
	onEvict   []func(cacheKey) // eviction hooks, called (under mu) per eviction
	// victimScore, when set, makes eviction popularity-aware: instead of
	// always evicting the LRU tail, put scans the victimScanDepth least
	// recently used entries and evicts the lowest-scoring one, so a hot
	// entry that merely aged survives cold churn.
	victimScore func(cacheKey) float64
}

type lruEntry struct {
	key cacheKey
	val PortfolioResult
}

// defaultCacheCap replaces non-positive cache capacities. Every LRU
// construction path (NewEngine, NewCacheSet) funnels through this guard,
// so a zero or negative configured size can never build a pathological
// always-evicting cache.
const defaultCacheCap = 256

// normCacheCap normalizes a configured cache capacity.
func normCacheCap(capacity int) int {
	if capacity < 1 {
		return defaultCacheCap
	}
	return capacity
}

func newLRU(capacity int) *lru {
	return &lru{
		cap:     normCacheCap(capacity),
		entries: make(map[cacheKey]*list.Element),
		order:   list.New(),
	}
}

// addEvictHook registers fn, called once per evicted entry with the
// evicted key while the LRU lock is held — keep it cheap (a counter
// increment, a set insertion) and never re-enter the LRU from it.
func (l *lru) addEvictHook(fn func(cacheKey)) {
	l.mu.Lock()
	l.onEvict = append(l.onEvict, fn)
	l.mu.Unlock()
}

// setVictimScorer installs score as the eviction-ordering signal (nil
// restores plain LRU order). Called under the LRU lock at eviction time,
// so it must be cheap and must not touch the LRU itself.
func (l *lru) setVictimScorer(score func(cacheKey) float64) {
	l.mu.Lock()
	l.victimScore = score
	l.mu.Unlock()
}

// victimScanDepth bounds how many tail entries a popularity-aware
// eviction examines; beyond a handful the scan buys nothing — anything
// deeper in the recency order is recent enough to keep regardless.
const victimScanDepth = 8

// victim picks the entry to evict: the back of the recency order, or,
// with a scorer installed, the lowest-scoring of the last victimScanDepth
// entries (ties keep the least recently used). The just-inserted front
// entry is never a candidate — evicting it would turn put into a silent
// no-op, and a hot key that can never land in the cache re-solves on
// every request. Called with l.mu held.
func (l *lru) victim() *list.Element {
	victim := l.order.Back()
	if l.victimScore == nil || victim == nil {
		return victim
	}
	scan := victimScanDepth
	if n := l.order.Len() - 1; scan > n {
		scan = n
	}
	best, bestScore := victim, l.victimScore(victim.Value.(*lruEntry).key)
	el := victim
	for i := 1; i < scan; i++ {
		if el = el.Prev(); el == nil {
			break
		}
		if sc := l.victimScore(el.Value.(*lruEntry).key); sc < bestScore {
			best, bestScore = el, sc
		}
	}
	return best
}

// get returns the cached value for key, counting a hit or a miss.
func (l *lru) get(key cacheKey) (PortfolioResult, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if el, ok := l.entries[key]; ok {
		l.order.MoveToFront(el)
		l.hits++
		return el.Value.(*lruEntry).val, true
	}
	l.misses++
	return PortfolioResult{}, false
}

// contains reports whether key is cached without touching recency or stats.
func (l *lru) contains(key cacheKey) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	_, ok := l.entries[key]
	return ok
}

// put inserts or refreshes key, evicting the least recently used entries
// beyond capacity.
func (l *lru) put(key cacheKey, val PortfolioResult) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if el, ok := l.entries[key]; ok {
		l.order.MoveToFront(el)
		el.Value.(*lruEntry).val = val
		return
	}
	l.entries[key] = l.order.PushFront(&lruEntry{key: key, val: val})
	for l.order.Len() > l.cap {
		oldest := l.victim()
		evictedKey := oldest.Value.(*lruEntry).key
		l.order.Remove(oldest)
		delete(l.entries, evictedKey)
		l.evictions++
		for _, fn := range l.onEvict {
			fn(evictedKey)
		}
	}
}

// recordHit counts a hit that was satisfied outside the lru (Batch's
// within-batch dedup), without touching entries or recency.
func (l *lru) recordHit() {
	l.mu.Lock()
	l.hits++
	l.mu.Unlock()
}

func (l *lru) stats() (hits, misses uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.hits, l.misses
}

func (l *lru) evicted() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.evictions
}

func (l *lru) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.order.Len()
}

// Engine memoizes portfolio races by graph fingerprint and stage count:
// repeated requests for structurally identical graphs — multi-model
// serving, synthetic sweeps, benchmark reruns — return in O(1) without
// re-running any backend. A single-backend schedule cache is a one-member
// race. A hit returns the stored race result (with a defensively copied
// schedule); a miss races the backends and stores the result only when
// the winner is full-effort and the caller's context is still live — a
// budget-cut incumbent, or anything finished after the caller gave up, is
// only as good as that call's deadline and must not shadow a later
// full-effort race. Safe for concurrent use.
//
// The serving layer runs one Engine per request class and one per
// /v1/batch backend; the public API and the CLI run theirs through a
// CacheSet or directly.
type Engine struct {
	backends []Scheduler
	opts     PortfolioOptions
	lru      *lru

	ins     *Instruments
	insName string
}

// NewEngine builds a memoized race over backends with at most capacity
// stored results (capacity < 1 defaults to 256).
func NewEngine(backends []Scheduler, capacity int, opts PortfolioOptions) *Engine {
	return &Engine{backends: backends, opts: opts, lru: newLRU(capacity)}
}

// Instrument attaches the memo's hit/miss/eviction counters and
// per-backend race telemetry (latency, win/loss/truncation) to ins under
// the given engine name — the serving layer passes the request class, or
// "batch/<backend>". Call once, before the engine serves traffic.
func (e *Engine) Instrument(ins *Instruments, name string) {
	ins.instrumentLRU(name, e.lru)
	e.ins, e.insName = ins, name
}

// Name implements Scheduler: a one-member engine is transparent, carrying
// its backend's name; a race is named after its members.
func (e *Engine) Name() string {
	if len(e.backends) == 1 {
		return e.backends[0].Name()
	}
	return "portfolio(" + strings.Join(e.Backends(), ",") + ")"
}

// Backends returns the raced backend names, in race order.
func (e *Engine) Backends() []string {
	names := make([]string, len(e.backends))
	for i, b := range e.backends {
		names[i] = b.Name()
	}
	return names
}

// Schedule implements Scheduler, serving the memoized winner when there is
// one.
func (e *Engine) Schedule(ctx context.Context, g *graph.Graph, numStages int) (sched.Schedule, error) {
	res, _, err := e.Run(ctx, g, numStages)
	return res.Schedule, err
}

// Run races the backends on (g, numStages), serving memoized results when
// available. hit reports a cache hit; on a hit the Outcomes telemetry
// (elapsed times, per-backend costs) is that of the original race and the
// result is shared — callers must treat Outcomes as read-only.
func (e *Engine) Run(ctx context.Context, g *graph.Graph, numStages int) (res PortfolioResult, hit bool, err error) {
	key := cacheKey{fp: g.Fingerprint(), numStages: numStages}
	if memo, ok := e.lru.get(key); ok {
		memo.Schedule = memo.Schedule.Clone()
		return memo, true, nil
	}
	// Race outside the lock: a slow backend must not serialize unrelated
	// cache traffic. Concurrent misses on one key may race twice; the last
	// finisher's (equivalent) result wins.
	res, err = Portfolio(ctx, e.backends, g, numStages, e.opts)
	e.ins.ObserveOutcomes(e.insName, res.Outcomes)
	// The store rule: a budget-cut winner, or any result that finished
	// after the caller's ctx died, is only as good as this call's deadline.
	// A full-effort winner IS stored even when slower members were cut:
	// the memoized result means "best found within one race".
	if err != nil || res.Truncated || ctx.Err() != nil {
		return res, false, err
	}
	stored := res
	stored.Schedule = res.Schedule.Clone()
	// Drop every per-outcome schedule: telemetry (cost, elapsed, error)
	// stays, the winner's assignment lives in stored.Schedule, and nothing
	// in the cache aliases a schedule the miss caller may mutate.
	stored.Outcomes = append([]Outcome(nil), res.Outcomes...)
	for i := range stored.Outcomes {
		stored.Outcomes[i].Schedule = sched.Schedule{}
	}
	e.lru.put(key, stored)
	return res, false, nil
}

// Contains reports whether a full-effort result for (g, numStages) is
// memoized, without counting toward hit/miss statistics.
func (e *Engine) Contains(g *graph.Graph, numStages int) bool {
	return e.lru.contains(cacheKey{fp: g.Fingerprint(), numStages: numStages})
}

// Warm races every graph through a bounded pool of jobs workers (jobs < 1
// defaults to GOMAXPROCS) and returns how many distinct instances are
// memoized afterwards — duplicate graphs and evictions by later warms do
// not inflate the count. Warming is best-effort: results the store rule
// refuses are skipped, failures don't stop the remaining warms, and the
// first error is returned at the end.
func (e *Engine) Warm(ctx context.Context, graphs []*graph.Graph, numStages, jobs int) (stored int, err error) {
	if jobs < 1 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if jobs > len(graphs) {
		jobs = len(graphs)
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	work := make(chan *graph.Graph)
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for g := range work {
				if _, _, err := e.Run(ctx, g, numStages); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}
		}()
	}
feed:
	for _, g := range graphs {
		select {
		case work <- g:
		case <-ctx.Done():
			break feed
		}
	}
	close(work)
	wg.Wait()

	seen := make(map[uint64]bool, len(graphs))
	for _, g := range graphs {
		if fp := g.Fingerprint(); !seen[fp] {
			seen[fp] = true
			if e.Contains(g, numStages) {
				stored++
			}
		}
	}
	return stored, firstErr
}

// OnEvict registers fn to be called with the evicted instance's graph
// fingerprint and stage count on every LRU eviction. The hook runs under
// the cache lock: keep it cheap and never call back into this engine from
// it. Multiple hooks run in registration order; this is the signal source
// for speculative re-admission of evicted hot entries.
func (e *Engine) OnEvict(fn func(fp uint64, numStages int)) {
	e.lru.addEvictHook(func(k cacheKey) { fn(k.fp, k.numStages) })
}

// SetEvictionScorer makes eviction popularity-aware: when over capacity
// the engine evicts the lowest-scoring of its least recently used entries
// instead of strictly the oldest, so hot-but-aged results survive cold
// churn. score runs under the cache lock — it must be cheap and must not
// call back into this engine. A nil score restores plain LRU order.
func (e *Engine) SetEvictionScorer(score func(fp uint64, numStages int) float64) {
	if score == nil {
		e.lru.setVictimScorer(nil)
		return
	}
	e.lru.setVictimScorer(func(k cacheKey) float64 { return score(k.fp, k.numStages) })
}

// Stats returns cumulative cache hits and misses.
func (e *Engine) Stats() (hits, misses uint64) { return e.lru.stats() }

// Evictions returns the cumulative number of LRU evictions.
func (e *Engine) Evictions() uint64 { return e.lru.evicted() }

// Len returns the number of memoized results.
func (e *Engine) Len() int { return e.lru.len() }

// CacheSet lazily maintains one single-backend Engine per backend name,
// resolved dynamically from a registry — the shared engine behind the
// public ScheduleWith/ScheduleBatch cache and the serving layer's batch
// endpoint. Replacing a backend registration (agent reload) takes effect
// immediately without invalidating unrelated backends' caches.
type CacheSet struct {
	r   *Registry
	cap int

	mu     sync.Mutex
	m      map[string]*Engine
	ins    *Instruments
	prefix string
}

// NewCacheSet builds a cache set over r with the given per-backend
// capacity (capacity < 1 defaults to 256 — normalized here as well as in
// the LRU itself, so the set never records a pathological capacity).
func NewCacheSet(r *Registry, capacity int) *CacheSet {
	return &CacheSet{r: r, cap: normCacheCap(capacity), m: make(map[string]*Engine)}
}

// Instrument wires every engine in the set — current and future — into
// ins; each backend's engine is named prefix+backendName (e.g. "batch/"
// yields "batch/heur"). Call once, before the set serves traffic.
func (cs *CacheSet) Instrument(ins *Instruments, prefix string) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.ins, cs.prefix = ins, prefix
	for name, e := range cs.m {
		e.Instrument(ins, prefix+name)
	}
}

// For returns the engine wrapping the named backend, creating it on first
// use; unknown names error eagerly.
func (cs *CacheSet) For(name string) (*Engine, error) {
	if _, err := cs.r.Lookup(name); err != nil {
		return nil, err
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if e, ok := cs.m[name]; ok {
		return e, nil
	}
	e := NewEngine([]Scheduler{Dynamic(cs.r, name)}, cs.cap, PortfolioOptions{})
	if cs.ins != nil {
		e.Instrument(cs.ins, cs.prefix+name)
	}
	cs.m[name] = e
	return e, nil
}

// Stats reports cumulative hits and misses for one backend name (zeros
// when that backend was never used through the set).
func (cs *CacheSet) Stats(name string) (hits, misses uint64) {
	cs.mu.Lock()
	e, ok := cs.m[name]
	cs.mu.Unlock()
	if !ok {
		return 0, 0
	}
	return e.Stats()
}

// Reset drops every memoized result for every backend.
func (cs *CacheSet) Reset() {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.m = make(map[string]*Engine)
}
