package js

import (
	"container/list"
	"crypto/sha256"
	"sync"
	"sync/atomic"
	"time"
)

// UnitCache is a content-addressed cache of compiled Code units, keyed by
// the SHA-256 of the script source. Compiled units are immutable after
// compilation (the constant pool holds only primitives), so one unit can be
// shared by any number of interpreters concurrently — a batch scan that
// opens a thousand documents instrumented with the same prologue compiles
// it exactly once.
//
// The cache is sharded to keep lock contention off the open path, with a
// per-shard LRU bounded by an equal slice of the byte budget.

const unitShardCount = 16

// DefaultUnitCacheBytes bounds the global compiled-unit cache.
const DefaultUnitCacheBytes = 64 << 20

// DefaultUnits is the process-wide compiled-unit cache used by every
// interpreter whose Units field is nil.
var DefaultUnits = NewUnitCache(DefaultUnitCacheBytes)

// UnitKey identifies a compiled unit by source content hash.
type UnitKey [sha256.Size]byte

// UnitKeyFor hashes script source into a cache key.
func UnitKeyFor(src string) UnitKey { return sha256.Sum256([]byte(src)) }

type unitEntry struct {
	key  UnitKey
	code *Code
	size int64
}

type unitShard struct {
	mu      sync.Mutex
	entries map[UnitKey]*list.Element
	lru     *list.List // front = most recently used
	bytes   int64
}

// UnitCacheStats is a point-in-time snapshot of cache counters.
type UnitCacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Entries   int64  `json:"entries"`
	Bytes     int64  `json:"bytes"`
}

// UnitCache caches compiled units. The zero value is not usable; construct
// with NewUnitCache.
type UnitCache struct {
	maxBytes int64
	shards   [unitShardCount]unitShard

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
	entries   atomic.Int64
	bytes     atomic.Int64

	// observer, when set, sees every compile performed on a cache miss
	// (latency + resulting unit size). The obs layer hangs its
	// js_compile_seconds histogram here.
	observer atomic.Pointer[func(d time.Duration, bytes int64)]
}

// NewUnitCache returns a cache bounded by maxBytes of estimated unit size.
func NewUnitCache(maxBytes int64) *UnitCache {
	c := &UnitCache{maxBytes: maxBytes}
	for i := range c.shards {
		c.shards[i].entries = make(map[UnitKey]*list.Element)
		c.shards[i].lru = list.New()
	}
	return c
}

// SetObserver installs a compile observer (nil clears it). Safe for
// concurrent use with Load.
func (c *UnitCache) SetObserver(fn func(d time.Duration, bytes int64)) {
	if fn == nil {
		c.observer.Store(nil)
		return
	}
	c.observer.Store(&fn)
}

func (c *UnitCache) shard(k UnitKey) *unitShard {
	return &c.shards[int(k[0])%unitShardCount]
}

// Load returns the compiled unit for src, compiling and caching on miss.
// Parse errors are returned verbatim and never cached.
func (c *UnitCache) Load(src string) (*Code, error) {
	key := UnitKeyFor(src)
	sh := c.shard(key)

	sh.mu.Lock()
	if el, ok := sh.entries[key]; ok {
		sh.lru.MoveToFront(el)
		code := el.Value.(*unitEntry).code
		sh.mu.Unlock()
		c.hits.Add(1)
		return code, nil
	}
	sh.mu.Unlock()

	// Compile outside the lock: a duplicate compile under contention is
	// cheaper than serializing every miss in the shard.
	c.misses.Add(1)
	start := time.Now()
	code, err := CompileSource(src)
	if err != nil {
		return nil, err
	}
	size := code.SizeEstimate()
	if obs := c.observer.Load(); obs != nil {
		(*obs)(time.Since(start), size)
	}

	sh.mu.Lock()
	if el, ok := sh.entries[key]; ok {
		// Lost the race; keep the first unit so sharing stays maximal.
		sh.lru.MoveToFront(el)
		code = el.Value.(*unitEntry).code
		sh.mu.Unlock()
		return code, nil
	}
	el := sh.lru.PushFront(&unitEntry{key: key, code: code, size: size})
	sh.entries[key] = el
	sh.bytes += size
	c.entries.Add(1)
	c.bytes.Add(size)
	budget := c.maxBytes / unitShardCount
	for sh.bytes > budget && sh.lru.Len() > 1 {
		oldest := sh.lru.Back()
		ent := oldest.Value.(*unitEntry)
		sh.lru.Remove(oldest)
		delete(sh.entries, ent.key)
		sh.bytes -= ent.size
		c.entries.Add(-1)
		c.bytes.Add(-ent.size)
		c.evictions.Add(1)
	}
	sh.mu.Unlock()
	return code, nil
}

// Warm ensures src's compiled unit is cached, discarding any parse error:
// invalid source simply stays uncached and the error surfaces later through
// the normal run path. The instrumenter calls this on freshly built
// monitoring code so the first reader open of a document runs warm.
func (c *UnitCache) Warm(src string) { _, _ = c.Load(src) }

// Precompile warms the process-wide default unit cache.
func Precompile(src string) { DefaultUnits.Warm(src) }

// Contains reports whether a unit for src is cached, without touching LRU
// order or counters (used by tests and the recycle regression check).
func (c *UnitCache) Contains(src string) bool {
	key := UnitKeyFor(src)
	sh := c.shard(key)
	sh.mu.Lock()
	_, ok := sh.entries[key]
	sh.mu.Unlock()
	return ok
}

// Stats snapshots the cache counters.
func (c *UnitCache) Stats() UnitCacheStats {
	return UnitCacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Entries:   c.entries.Load(),
		Bytes:     c.bytes.Load(),
	}
}
