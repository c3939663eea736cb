// Package cache is the content-addressed front-end cache: it remembers
// the outcome of the static front-end (parse → decompress → chain
// reconstruction → instrumentation) per SHA-256 of the submitted bytes,
// so resubmitted and duplicated documents skip the per-document hot path.
//
// Real PDF malware corpora are dominated by near- and exact-duplicate
// samples (polymorphic campaigns reuse carriers), which makes the
// front-end the scaling bottleneck once the batch engine widens. The
// cache stores the completed instrument.Result — features, chains,
// instrumented output bytes, embedded results — plus terminal front-end
// errors such as instrument.ErrNoJavaScript. It deliberately does NOT
// store verdicts: the runtime features F8–F13 depend on what the
// document does in the reader process at open time, so runtime detection
// runs on every open and only the static artifact is reused.
//
// Concurrency: keys are sharded across independently-locked shards, and
// a singleflight layer guarantees that N concurrent submissions of
// identical bytes perform exactly one front-end pass — the followers
// block on the leader's flight and share its result.
package cache

import (
	"container/list"
	"context"
	"errors"
	"sync"

	"pdfshield/internal/instrument"
	"pdfshield/internal/obs"
)

// Defaults applied by New when the corresponding Config field is zero.
const (
	DefaultMaxEntries = 4096
	DefaultMaxBytes   = 256 << 20 // 256 MB of cached instrumented output
	DefaultShards     = 16
)

// entryOverhead approximates the fixed per-entry bookkeeping cost (maps,
// list element, Result struct) charged on top of the payload bytes.
const entryOverhead = 512

// ErrFlightAborted is returned to singleflight followers whose leader's
// front-end pass panicked before producing a result. The panic itself
// propagates on the leader's goroutine (pipeline containment fails the
// leader's document closed); followers fail closed with this error.
var ErrFlightAborted = errors.New("cache: front-end flight aborted")

// Config tunes a Cache.
type Config struct {
	// MaxEntries bounds the total number of cached documents (0 =
	// DefaultMaxEntries, negative = unlimited).
	MaxEntries int
	// MaxBytes bounds the total payload bytes retained (0 =
	// DefaultMaxBytes, negative = unlimited).
	MaxBytes int64
	// Shards is the number of independently-locked shards (0 =
	// DefaultShards).
	Shards int
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	// Hits counts lookups served from a completed entry.
	Hits uint64 `json:"hits"`
	// Misses counts lookups that ran the front-end (singleflight leaders).
	Misses uint64 `json:"misses"`
	// Shared counts singleflight followers served by a leader's in-flight
	// front-end pass (work avoided without a stored entry yet).
	Shared uint64 `json:"shared"`
	// Evictions counts entries dropped by the LRU capacity bounds.
	Evictions uint64 `json:"evictions"`
	// Entries and Bytes describe the current residency.
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
}

// HitRate is the fraction of lookups that avoided a front-end pass.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Shared + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits+s.Shared) / float64(total)
}

// entry is one cached front-end outcome. Exactly the pair the front-end
// hands back: ErrNoJavaScript arrives with a non-nil Result, parse
// failures with a nil one.
type entry struct {
	key  string
	res  *instrument.Result
	err  error
	size int64
	elem *list.Element
}

// flight is an in-progress front-end pass other submitters can join.
type flight struct {
	done chan struct{}
	res  *instrument.Result
	err  error
}

type shard struct {
	mu      sync.Mutex
	entries map[string]*entry
	lru     *list.List // front = most recently used
	flights map[string]*flight
	bytes   int64
	// onDrop is the cache's drop observer (see SetDropObserver).
	onDrop func(*instrument.Result)

	hits, misses, shared, evictions uint64
}

// Cache is a sharded, content-addressed front-end cache.
type Cache struct {
	shards     []*shard
	maxEntries int   // per shard (<=0 = unlimited)
	maxBytes   int64 // per shard (<=0 = unlimited)
}

// New builds a cache from cfg (zero values take the package defaults).
func New(cfg Config) *Cache {
	nshards := cfg.Shards
	if nshards <= 0 {
		nshards = DefaultShards
	}
	maxEntries := cfg.MaxEntries
	if maxEntries == 0 {
		maxEntries = DefaultMaxEntries
	}
	maxBytes := cfg.MaxBytes
	if maxBytes == 0 {
		maxBytes = DefaultMaxBytes
	}
	c := &Cache{shards: make([]*shard, nshards)}
	// Capacity bounds are split evenly across shards; each shard evicts
	// independently, so the totals hold without a global lock.
	if maxEntries > 0 {
		c.maxEntries = (maxEntries + nshards - 1) / nshards
	}
	if maxBytes > 0 {
		c.maxBytes = (maxBytes + int64(nshards) - 1) / int64(nshards)
	}
	for i := range c.shards {
		c.shards[i] = &shard{
			entries: make(map[string]*entry),
			lru:     list.New(),
			flights: make(map[string]*flight),
		}
	}
	return c
}

// shardFor picks the shard for a key. Keys are hex SHA-256 digests, so
// the leading bytes are already uniformly distributed — an FNV-1a over
// the first 8 runes spreads them without rehashing the whole digest.
func (c *Cache) shardFor(key string) *shard {
	h := uint32(2166136261)
	n := len(key)
	if n > 8 {
		n = 8
	}
	for i := 0; i < n; i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return c.shards[h%uint32(len(c.shards))]
}

// Get returns the cached outcome for key, if present. The third return
// reports whether the lookup hit. Get never joins a flight; use Do for
// the full read-through path.
func (c *Cache) Get(key string) (*instrument.Result, error, bool) {
	sh := c.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.lookupLocked(key)
	if !ok {
		sh.misses++
		return nil, nil, false
	}
	sh.hits++
	return e.res, e.err, true
}

// Outcome classifies how a DoContext call was satisfied.
type Outcome int

const (
	// OutcomeMiss: the caller was the singleflight leader and ran fn.
	OutcomeMiss Outcome = iota
	// OutcomeHit: served from a completed entry.
	OutcomeHit
	// OutcomeShared: joined (or waited on) another caller's in-flight
	// front-end pass.
	OutcomeShared
)

// Avoided reports whether the call skipped running fn.
func (o Outcome) String() string {
	switch o {
	case OutcomeHit:
		return "hit"
	case OutcomeShared:
		return "shared"
	default:
		return "miss"
	}
}

// Do is the context-free read-through entry point; see DoContext. The
// third return reports whether the caller avoided running fn (completed
// entry or shared flight).
func (c *Cache) Do(key string, fn func() (*instrument.Result, error)) (*instrument.Result, error, bool) {
	res, err, oc := c.DoContext(context.Background(), key, fn)
	return res, err, oc != OutcomeMiss
}

// DoContext is the read-through entry point: a stored entry is returned
// at once; otherwise the first caller for a key becomes the singleflight
// leader, runs fn exactly once and stores the outcome, while concurrent
// callers for the same key block on the leader and share its result.
//
// Cancellation: a follower whose ctx ends stops waiting on the flight
// and returns ctx.Err() (the leader's pass is unaffected). A leader
// whose fn returns a context error publishes it to the current followers
// but the outcome is NOT stored, so the next submission of the same
// bytes re-runs the front-end instead of replaying a cancellation as if
// it were a terminal parse failure. A registry key collision is not
// stored either (see transient).
func (c *Cache) DoContext(ctx context.Context, key string, fn func() (*instrument.Result, error)) (*instrument.Result, error, Outcome) {
	sh := c.shardFor(key)
	sh.mu.Lock()
	if e, ok := sh.lookupLocked(key); ok {
		sh.hits++
		sh.mu.Unlock()
		return e.res, e.err, OutcomeHit
	}
	if f, ok := sh.flights[key]; ok {
		sh.shared++
		sh.mu.Unlock()
		select {
		case <-f.done:
			return f.res, f.err, OutcomeShared
		case <-ctx.Done():
			return nil, ctx.Err(), OutcomeShared
		}
	}
	f := &flight{done: make(chan struct{}), err: ErrFlightAborted}
	sh.flights[key] = f
	sh.misses++
	sh.mu.Unlock()

	// If fn panics, the deferred cleanup publishes ErrFlightAborted to the
	// followers (so nobody blocks forever) and lets the panic continue to
	// unwind the leader — pipeline containment fails that document closed.
	completed := false
	defer func() {
		sh.mu.Lock()
		delete(sh.flights, key)
		if completed && !transient(f.err) {
			sh.storeLocked(c, key, f.res, f.err)
		}
		sh.mu.Unlock()
		close(f.done)
	}()
	f.res, f.err = fn()
	completed = true
	return f.res, f.err, OutcomeMiss
}

// transient reports whether err must never be cached as a terminal
// front-end result: a cancellation or deadline belongs to one caller, and
// a registry key collision (instrument.ErrDuplicate) clears on a retry,
// which draws a fresh key.
func transient(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, instrument.ErrDuplicate)
}

// SetDropObserver registers fn to receive every stored Result the cache
// lets go: evicted, invalidated, replaced, or never stored because it
// exceeds a shard's byte budget. The owner of the artifacts uses it to
// release what each one holds (the pipeline forgets their registry
// records). fn runs under a shard lock and must not call back into the
// cache. Set it before the cache is shared.
func (c *Cache) SetDropObserver(fn func(*instrument.Result)) {
	for _, sh := range c.shards {
		sh.mu.Lock()
		sh.onDrop = fn
		sh.mu.Unlock()
	}
}

// Invalidate drops the entry for key, if any. De-instrumentation calls
// this: once a benign document's registry record is removed, its cached
// Result holds a dead protection key and must not be replayed.
func (c *Cache) Invalidate(key string) {
	sh := c.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e, ok := sh.entries[key]; ok {
		sh.removeLocked(e)
	}
}

// RegisterMetrics folds the cache's counters into an obs registry as
// callback-backed series: scrapes and snapshots read the live shard
// counters, so there is exactly one source of truth for cache stats.
// Re-registering (e.g. a fresh System sharing a long-lived registry)
// replaces the previous cache's series.
func (c *Cache) RegisterMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	stat := func(pick func(Stats) float64) func() float64 {
		return func() float64 { return pick(c.Stats()) }
	}
	reg.CounterFunc(obs.MetricCacheHits, stat(func(s Stats) float64 { return float64(s.Hits) }))
	reg.CounterFunc(obs.MetricCacheMisses, stat(func(s Stats) float64 { return float64(s.Misses) }))
	reg.CounterFunc(obs.MetricCacheShared, stat(func(s Stats) float64 { return float64(s.Shared) }))
	reg.CounterFunc(obs.MetricCacheEvictions, stat(func(s Stats) float64 { return float64(s.Evictions) }))
	reg.GaugeFunc(obs.MetricCacheEntries, stat(func(s Stats) float64 { return float64(s.Entries) }))
	reg.GaugeFunc(obs.MetricCacheBytes, stat(func(s Stats) float64 { return float64(s.Bytes) }))
}

// Stats sums a snapshot over all shards.
func (c *Cache) Stats() Stats {
	var s Stats
	for _, sh := range c.shards {
		sh.mu.Lock()
		s.Hits += sh.hits
		s.Misses += sh.misses
		s.Shared += sh.shared
		s.Evictions += sh.evictions
		s.Entries += len(sh.entries)
		s.Bytes += sh.bytes
		sh.mu.Unlock()
	}
	return s
}

// Len returns the number of resident entries.
func (c *Cache) Len() int {
	n := 0
	for _, sh := range c.shards {
		sh.mu.Lock()
		n += len(sh.entries)
		sh.mu.Unlock()
	}
	return n
}

// lookupLocked finds an entry and promotes hits to the LRU front.
func (sh *shard) lookupLocked(key string) (*entry, bool) {
	e, ok := sh.entries[key]
	if ok {
		sh.lru.MoveToFront(e.elem)
	}
	return e, ok
}

// storeLocked inserts an outcome and evicts from the LRU tail until the
// shard is back under both capacity bounds.
func (sh *shard) storeLocked(c *Cache, key string, res *instrument.Result, err error) {
	if old, ok := sh.entries[key]; ok {
		// A racing Invalidate+Do can re-store; replace, don't double-count.
		sh.removeLocked(old)
	}
	e := &entry{key: key, res: res, err: err, size: resultSize(res, err)}
	if c.maxBytes > 0 && e.size > c.maxBytes {
		// Larger than the whole shard budget: caching it would evict
		// everything for one resident; skip it.
		sh.dropped(res)
		return
	}
	e.elem = sh.lru.PushFront(e)
	sh.entries[key] = e
	sh.bytes += e.size
	for (c.maxEntries > 0 && len(sh.entries) > c.maxEntries) ||
		(c.maxBytes > 0 && sh.bytes > c.maxBytes) {
		tail := sh.lru.Back()
		if tail == nil {
			break
		}
		victim := tail.Value.(*entry)
		if victim == e {
			break // never evict the entry just stored
		}
		sh.removeLocked(victim)
		sh.evictions++
	}
}

func (sh *shard) removeLocked(e *entry) {
	delete(sh.entries, e.key)
	sh.lru.Remove(e.elem)
	sh.bytes -= e.size
	sh.dropped(e.res)
}

// dropped reports a Result the shard let go to the drop observer.
func (sh *shard) dropped(res *instrument.Result) {
	if sh.onDrop != nil && res != nil {
		sh.onDrop(res)
	}
}

// resultSize approximates the retained payload of one cached outcome:
// the instrumented output, the de-instrumentation spec's saved originals,
// the reader view an open builds (charged at its ViewBound, known now
// although the view is built on the first open; outcomes that fail the
// front-end are never opened and carry no view), and the same for every
// embedded result, plus fixed overhead.
func resultSize(res *instrument.Result, err error) int64 {
	size := int64(entryOverhead)
	if res == nil {
		return size
	}
	size += int64(len(res.Output))
	for _, se := range res.Spec.Entries {
		size += int64(len(se.Original))
	}
	if err == nil {
		size += res.ViewBound()
	}
	for _, emb := range res.Embedded {
		size += resultSize(emb, nil)
	}
	return size
}
