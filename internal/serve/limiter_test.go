package serve

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// fakeClock is a manually advanced time source for limiter tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1700000000, 0)} }

// TestLimiterBurstThenDeny: a fresh tenant gets its full burst, then the
// bucket is empty and Allow reports the time until one token accrues.
func TestLimiterBurstThenDeny(t *testing.T) {
	clk := newFakeClock()
	l := NewTenantLimiter(2, 3, clk.now) // 2 tokens/sec, burst 3
	for i := 0; i < 3; i++ {
		if ok, _ := l.Allow("a"); !ok {
			t.Fatalf("burst submission %d denied", i)
		}
	}
	ok, retry := l.Allow("a")
	if ok {
		t.Fatal("4th submission admitted past the burst ceiling")
	}
	if retry <= 0 || retry > time.Second {
		t.Errorf("retry hint %v, want in (0, 500ms]-ish for rate 2/s", retry)
	}
}

// TestLimiterRefill: advancing the clock accrues tokens at the configured
// rate, capped at the burst ceiling.
func TestLimiterRefill(t *testing.T) {
	clk := newFakeClock()
	l := NewTenantLimiter(2, 2, clk.now)
	l.Allow("a")
	l.Allow("a")
	if ok, _ := l.Allow("a"); ok {
		t.Fatal("empty bucket admitted")
	}
	clk.advance(500 * time.Millisecond) // +1 token at 2/sec
	if ok, _ := l.Allow("a"); !ok {
		t.Fatal("refilled token not granted")
	}
	if ok, _ := l.Allow("a"); ok {
		t.Fatal("second token granted after only one accrued")
	}
	clk.advance(time.Hour) // cap at burst, not hours of accrual
	l.Allow("a")
	l.Allow("a")
	if ok, _ := l.Allow("a"); ok {
		t.Fatal("burst ceiling not applied after long idle")
	}
}

// TestLimiterTenantIsolation: one drained tenant must not affect another.
func TestLimiterTenantIsolation(t *testing.T) {
	clk := newFakeClock()
	l := NewTenantLimiter(1, 1, clk.now)
	if ok, _ := l.Allow("hot"); !ok {
		t.Fatal("first submission denied")
	}
	if ok, _ := l.Allow("hot"); ok {
		t.Fatal("hot tenant admitted past its bucket")
	}
	if ok, _ := l.Allow("cold"); !ok {
		t.Fatal("cold tenant starved by the hot tenant's bucket")
	}
	if got := l.Tenants(); got != 2 {
		t.Errorf("Tenants() = %d, want 2", got)
	}
}

// TestLimiterDisabled: rate <= 0 yields a nil limiter that admits all.
func TestLimiterDisabled(t *testing.T) {
	l := NewTenantLimiter(0, 10, nil)
	if l != nil {
		t.Fatal("rate 0 should return a nil (unlimited) limiter")
	}
	for i := 0; i < 100; i++ {
		if ok, _ := l.Allow("any"); !ok {
			t.Fatal("nil limiter denied a submission")
		}
	}
	if l.Tenants() != 0 {
		t.Error("nil limiter should report 0 tenants")
	}
}

// TestLimiterBucketsBounded: a stream of distinct tenants on an advancing
// clock keeps the bucket map bounded.
func TestLimiterBucketsBounded(t *testing.T) {
	clk := newFakeClock()
	l := NewTenantLimiter(10, 1, clk.now) // a spent token refills in 100ms
	for i := 0; i < 100_000; i++ {
		if ok, _ := l.Allow(fmt.Sprintf("tenant-%d", i)); !ok {
			t.Fatalf("fresh tenant %d denied", i)
		}
		if n := l.Tenants(); n > minSweepAt {
			t.Fatalf("after %d tenants the limiter holds %d buckets, want <= %d", i+1, n, minSweepAt)
		}
		clk.advance(time.Millisecond)
	}
}

// TestLimiterSweepKeepsDrainedBuckets: a sweep drops only refilled
// buckets, so a tenant that spent its tokens stays limited.
func TestLimiterSweepKeepsDrainedBuckets(t *testing.T) {
	clk := newFakeClock()
	l := NewTenantLimiter(1, 1, clk.now)
	l.Allow("hot")
	for i := 0; i < minSweepAt; i++ { // the last insertion sweeps
		l.Allow(fmt.Sprintf("tenant-%d", i))
	}
	if ok, _ := l.Allow("hot"); ok {
		t.Fatal("sweep forgave the drained hot tenant")
	}
	if n := l.Tenants(); n != minSweepAt+1 {
		t.Errorf("Tenants() = %d, want %d: no bucket had refilled", n, minSweepAt+1)
	}
}

// TestLimiterConcurrentTenants runs Allow from many goroutines with
// distinct tenants, enough to trigger sweeps (run it under -race).
func TestLimiterConcurrentTenants(t *testing.T) {
	l := NewTenantLimiter(1000, 1, nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				if ok, _ := l.Allow(fmt.Sprintf("g%d-t%d", g, i)); !ok {
					t.Errorf("fresh tenant g%d-t%d denied", g, i)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := l.Tenants(); n > 8000 {
		t.Errorf("Tenants() = %d, more than were ever seen", n)
	}
}
