package cache

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pdfshield/internal/corpus"
	"pdfshield/internal/instrument"
)

// resultWithOutput builds a minimal Result whose cached size is
// storedSize(n).
func resultWithOutput(n int) *instrument.Result {
	return &instrument.Result{Output: make([]byte, n)}
}

// storedSize is what the cache charges for resultWithOutput(n) stored
// without an error: entryOverhead, n payload bytes and the reader view's
// bound.
func storedSize(n int) int64 {
	return entryOverhead + int64(n) + resultWithOutput(n).ViewBound()
}

func TestDoCachesResultAndTerminalError(t *testing.T) {
	c := New(Config{})
	calls := 0
	res := resultWithOutput(8)
	got, err, avoided := c.Do("k1", func() (*instrument.Result, error) {
		calls++
		return res, nil
	})
	if avoided || err != nil || got != res {
		t.Fatalf("first Do = (%p, %v, %v), want leader returning res", got, err, avoided)
	}
	got, err, avoided = c.Do("k1", func() (*instrument.Result, error) {
		calls++
		return nil, nil
	})
	if !avoided || err != nil || got != res {
		t.Fatalf("second Do = (%p, %v, %v), want cached res", got, err, avoided)
	}
	if calls != 1 {
		t.Fatalf("fn ran %d times, want 1", calls)
	}

	// Terminal errors cache the same way (ErrNoJavaScript arrives with a
	// non-nil Result carrying the features).
	got, err, _ = c.Do("k2", func() (*instrument.Result, error) {
		return resultWithOutput(0), instrument.ErrNoJavaScript
	})
	if !errors.Is(err, instrument.ErrNoJavaScript) || got == nil {
		t.Fatalf("error store = (%v, %v)", got, err)
	}
	_, err, avoided = c.Do("k2", func() (*instrument.Result, error) {
		t.Fatal("fn must not run for a cached error")
		return nil, nil
	})
	if !avoided || !errors.Is(err, instrument.ErrNoJavaScript) {
		t.Fatalf("cached error = (%v, %v), want hit with ErrNoJavaScript", avoided, err)
	}

	s := c.Stats()
	if s.Hits != 2 || s.Misses != 2 || s.Entries != 2 {
		t.Fatalf("stats = %+v, want 2 hits / 2 misses / 2 entries", s)
	}
	if hr := s.HitRate(); hr != 0.5 {
		t.Fatalf("hit rate = %v, want 0.5", hr)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	// One shard so the entry cap applies to a single LRU list.
	c := New(Config{MaxEntries: 3, Shards: 1})
	for i := 1; i <= 3; i++ {
		k := fmt.Sprintf("k%d", i)
		c.Do(k, func() (*instrument.Result, error) { return resultWithOutput(1), nil })
	}
	// Touch k1: k2 becomes least recently used.
	if _, _, ok := c.Get("k1"); !ok {
		t.Fatal("k1 should be resident")
	}
	c.Do("k4", func() (*instrument.Result, error) { return resultWithOutput(1), nil })

	if _, _, ok := c.Get("k2"); ok {
		t.Fatal("k2 should have been evicted as the LRU victim")
	}
	for _, k := range []string{"k1", "k3", "k4"} {
		if _, _, ok := c.Get(k); !ok {
			t.Fatalf("%s should have survived eviction", k)
		}
	}
	if s := c.Stats(); s.Evictions != 1 || s.Entries != 3 {
		t.Fatalf("stats = %+v, want 1 eviction / 3 entries", s)
	}
}

func TestBytesCapEvicts(t *testing.T) {
	const payload = 1024
	perEntry := storedSize(payload)
	c := New(Config{MaxBytes: 2 * perEntry, MaxEntries: -1, Shards: 1})
	for i := 1; i <= 3; i++ {
		k := fmt.Sprintf("k%d", i)
		c.Do(k, func() (*instrument.Result, error) { return resultWithOutput(payload), nil })
	}
	if _, _, ok := c.Get("k1"); ok {
		t.Fatal("k1 should have been evicted by the bytes cap")
	}
	s := c.Stats()
	if s.Entries != 2 || s.Bytes != 2*perEntry || s.Evictions != 1 {
		t.Fatalf("stats = %+v, want 2 entries / %d bytes / 1 eviction", s, 2*perEntry)
	}
}

func TestOversizedEntryNotStored(t *testing.T) {
	c := New(Config{MaxBytes: storedSize(10), MaxEntries: -1, Shards: 1})
	c.Do("small", func() (*instrument.Result, error) { return resultWithOutput(1), nil })
	c.Do("big", func() (*instrument.Result, error) { return resultWithOutput(1 << 20), nil })
	if _, _, ok := c.Get("small"); !ok {
		t.Fatal("small entry should not be displaced by an uncacheable one")
	}
	if _, _, ok := c.Get("big"); ok {
		t.Fatal("entry larger than the shard budget must not be stored")
	}
}

func TestResultSizeCountsSpecAndEmbedded(t *testing.T) {
	res := resultWithOutput(100)
	res.Spec.Entries = []instrument.SpecEntry{{Original: string(make([]byte, 40))}}
	res.Embedded = []*instrument.Result{resultWithOutput(60)}
	want := int64(entryOverhead+100+40) + res.ViewBound() + storedSize(60)
	if got := resultSize(res, nil); got != want {
		t.Fatalf("resultSize = %d, want %d", got, want)
	}
}

// TestResultSizeChargesReaderView: an opened artifact is charged the bound
// of the reader view it will build, script text included, and the view an
// open of a real instrumented document builds stays within that charge. A
// front-end failure is never opened and is charged no view.
func TestResultSizeChargesReaderView(t *testing.T) {
	res := resultWithOutput(100)
	res.ScriptBytes = 300
	if got, want := resultSize(res, nil), int64(entryOverhead+100)+res.ViewBound(); got != want {
		t.Fatalf("resultSize = %d, want %d", got, want)
	}
	if bound := res.ViewBound(); bound < 100+300 {
		t.Fatalf("ViewBound = %d, want at least output plus script bytes", bound)
	}
	if got, want := resultSize(res, instrument.ErrNoJavaScript), int64(entryOverhead+100); got != want {
		t.Fatalf("resultSize of a failed front-end pass = %d, want %d (no view)", got, want)
	}

	g := corpus.NewGenerator(5)
	samples := []corpus.Sample{g.BenignFormJS()}
	for _, fam := range []string{"mal-egghunt", "mal-titlehidden", "mal-flash", "mal-cooltype"} {
		s, ok := g.MaliciousFamily(fam)
		if !ok {
			t.Fatalf("no family %s", fam)
		}
		samples = append(samples, s)
	}
	for _, s := range samples {
		ins := instrument.New(instrument.NewRegistry("cachetest01"), instrument.Options{Seed: 5})
		r, err := ins.InstrumentBytes(s.ID, s.Raw)
		if err != nil {
			t.Fatalf("%s: %v", s.ID, err)
		}
		view, err := r.Prepared()
		if err != nil {
			t.Fatalf("%s: prepare: %v", s.ID, err)
		}
		if view.Size() > r.ViewBound() {
			t.Errorf("%s: view retains %d bytes, over its charged bound %d", s.ID, view.Size(), r.ViewBound())
		}
		if again, _ := r.Prepared(); again != view {
			t.Errorf("%s: a view within its bound must be kept and shared", s.ID)
		}
	}
}

func TestInvalidate(t *testing.T) {
	c := New(Config{})
	c.Do("k", func() (*instrument.Result, error) { return resultWithOutput(1), nil })
	c.Invalidate("k")
	if _, _, ok := c.Get("k"); ok {
		t.Fatal("invalidated entry still resident")
	}
	_, _, avoided := c.Do("k", func() (*instrument.Result, error) { return resultWithOutput(1), nil })
	if avoided {
		t.Fatal("Do after Invalidate must run fn again")
	}
}

// TestSingleflight proves the acceptance property: 8 concurrent
// submissions of the same key perform exactly one front-end pass.
func TestSingleflight(t *testing.T) {
	const followers = 7
	c := New(Config{})
	var calls atomic.Int32
	entered := make(chan struct{})
	release := make(chan struct{})
	res := resultWithOutput(4)

	var wg sync.WaitGroup
	results := make([]*instrument.Result, followers+1)
	avoideds := make([]bool, followers+1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		results[0], _, avoideds[0] = c.Do("k", func() (*instrument.Result, error) {
			calls.Add(1)
			close(entered)
			<-release
			return res, nil
		})
	}()
	<-entered
	for i := 1; i <= followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], _, avoideds[i] = c.Do("k", func() (*instrument.Result, error) {
				calls.Add(1)
				return nil, errors.New("follower must not run the front-end")
			})
		}(i)
	}
	// Wait for every follower to have joined the leader's flight before
	// letting it finish, so all 8 calls are genuinely concurrent.
	for deadline := time.Now().Add(5 * time.Second); ; {
		if c.Stats().Shared == followers {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("followers joined = %d, want %d", c.Stats().Shared, followers)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if n := calls.Load(); n != 1 {
		t.Fatalf("front-end ran %d times under 8-way concurrency, want exactly 1", n)
	}
	leaders := 0
	for i, r := range results {
		if r != res {
			t.Fatalf("caller %d got %p, want the shared result %p", i, r, res)
		}
		if !avoideds[i] {
			leaders++
		}
	}
	if leaders != 1 {
		t.Fatalf("%d callers ran the front-end path, want 1 leader", leaders)
	}
	s := c.Stats()
	if s.Misses != 1 || s.Shared != followers {
		t.Fatalf("stats = %+v, want 1 miss / %d shared", s, followers)
	}
}

// TestLeaderPanicReleasesFollowers: a panicking leader must not strand
// followers or poison the key.
func TestLeaderPanicReleasesFollowers(t *testing.T) {
	c := New(Config{})
	entered := make(chan struct{})
	release := make(chan struct{})

	var follower sync.WaitGroup
	follower.Add(1)
	var fErr error
	go func() {
		defer follower.Done()
		<-entered
		_, fErr, _ = c.Do("k", func() (*instrument.Result, error) {
			t.Error("follower ran fn while leader's flight was open")
			return nil, nil
		})
	}()

	var leader sync.WaitGroup
	leader.Add(1)
	panicked := false
	go func() {
		defer leader.Done()
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		c.Do("k", func() (*instrument.Result, error) {
			close(entered)
			<-release
			panic("front-end blew up")
		})
	}()

	<-entered
	for deadline := time.Now().Add(5 * time.Second); c.Stats().Shared == 0; {
		if time.Now().After(deadline) {
			t.Fatal("follower never joined the flight")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	leader.Wait()
	follower.Wait()

	if !panicked {
		t.Fatal("leader's panic must propagate for pipeline containment")
	}
	if !errors.Is(fErr, ErrFlightAborted) {
		t.Fatalf("follower error = %v, want ErrFlightAborted", fErr)
	}
	// The aborted flight must not be stored; the key works again.
	_, err, avoided := c.Do("k", func() (*instrument.Result, error) { return resultWithOutput(1), nil })
	if avoided || err != nil {
		t.Fatalf("Do after aborted flight = (%v, %v), want a fresh run", avoided, err)
	}
}

func TestConcurrentMixedKeys(t *testing.T) {
	c := New(Config{MaxEntries: 8, Shards: 4})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("key-%d", i%16)
				res, _, _ := c.Do(k, func() (*instrument.Result, error) {
					return resultWithOutput(i % 7), nil
				})
				if res == nil {
					t.Errorf("nil result for %s", k)
					return
				}
				if i%31 == 0 {
					c.Invalidate(k)
				}
			}
		}(w)
	}
	wg.Wait()
	if n := c.Len(); n > 8+4 { // per-shard split rounds up: ceil(8/4)=2 per shard
		t.Fatalf("residency %d exceeds configured bound", n)
	}
}
