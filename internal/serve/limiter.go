package serve

import (
	"math"
	"sync"
	"time"
)

// TenantLimiter is a per-tenant token bucket: each tenant (the X-Tenant
// header; "" is its own tenant) accrues rate tokens per second up to
// burst, and every admitted document spends one. One hot tenant drains
// only its own bucket, so a scraper hammering the endpoint cannot starve
// the other tenants' admission — quota isolation at the front door,
// before a document costs any pipeline work.
//
// Tenant names come from clients, so the bucket map is swept: a bucket
// that has refilled to burst answers Allow exactly like a fresh one and
// is dropped. The sweep runs when the map reaches sweepAt, which then
// becomes twice the surviving count, so its cost is amortised over the
// insertions that filled the map.
type TenantLimiter struct {
	rate  float64
	burst float64
	now   func() time.Time

	mu      sync.Mutex
	buckets map[string]*bucket
	sweepAt int
}

// minSweepAt is the smallest bucket count that triggers a sweep.
const minSweepAt = 1024

type bucket struct {
	tokens float64
	last   time.Time
}

// NewTenantLimiter builds a limiter granting rate tokens/second with the
// given burst ceiling (burst <= 0 takes max(rate, 1)). A nil limiter
// admits everything, so a zero/negative rate disables limiting at the
// call sites via NewTenantLimiter returning nil.
func NewTenantLimiter(rate float64, burst int, now func() time.Time) *TenantLimiter {
	if rate <= 0 {
		return nil
	}
	b := float64(burst)
	if b <= 0 {
		b = math.Max(rate, 1)
	}
	if now == nil {
		now = time.Now
	}
	return &TenantLimiter{rate: rate, burst: b, now: now, buckets: make(map[string]*bucket), sweepAt: minSweepAt}
}

// Allow spends one token from tenant's bucket. When the bucket is empty
// it reports false plus how long until a full token accrues — the value
// the HTTP layer rounds up into Retry-After.
func (l *TenantLimiter) Allow(tenant string) (ok bool, retryAfter time.Duration) {
	if l == nil {
		return true, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.now()
	b := l.buckets[tenant]
	if b == nil {
		if len(l.buckets) >= l.sweepAt {
			l.sweep(now)
		}
		b = &bucket{tokens: l.burst, last: now}
		l.buckets[tenant] = b
	} else {
		b.tokens = math.Min(l.burst, b.tokens+now.Sub(b.last).Seconds()*l.rate)
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	deficit := 1 - b.tokens
	return false, time.Duration(deficit / l.rate * float64(time.Second))
}

// sweep drops every bucket that has refilled to burst by now.
func (l *TenantLimiter) sweep(now time.Time) {
	for tenant, b := range l.buckets {
		if b.tokens+now.Sub(b.last).Seconds()*l.rate >= l.burst {
			delete(l.buckets, tenant)
		}
	}
	l.sweepAt = max(2*len(l.buckets), minSweepAt)
}

// Tenants returns how many tenants hold a bucket that has not been swept.
func (l *TenantLimiter) Tenants() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.buckets)
}
