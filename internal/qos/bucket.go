package qos

import (
	"math"
	"sync"
)

// bucket is one token bucket. Tokens refill continuously at rate/second up
// to burst; a take of one token admits one query. All fields are guarded
// by the owning Limiter's mutex.
type bucket struct {
	tokens float64
	last   float64 // engine-clock seconds of the last refill
}

// take refills the bucket to now and takes one token if available,
// returning (admitted, seconds until one token would be available).
func (b *bucket) take(now, rate, burst float64) (bool, float64) {
	if now > b.last {
		b.tokens = math.Min(burst, b.tokens+(now-b.last)*rate)
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	if rate <= 0 {
		return false, math.Inf(1)
	}
	return false, (1 - b.tokens) / rate
}

// maxConsumerBuckets bounds the per-consumer bucket map: beyond it the map
// is reset wholesale (a momentary amnesty beats unbounded memory under a
// consumer-ID scan).
const maxConsumerBuckets = 1 << 16

// Decision is one admission verdict.
type Decision struct {
	// OK reports whether the query is admitted.
	OK bool
	// Scope names what refused it: "consumer" or "class".
	Scope string
	// Class is the resolved class name the decision applied to.
	Class string
	// RetryAfter is the suggested wait in seconds before retrying.
	RetryAfter float64
}

// Limiter is the gateway's admission controller: a per-consumer token
// bucket plus one bucket per configured class. The zero value admits
// everything; build configured limiters with NewLimiter. Safe for
// concurrent use.
type Limiter struct {
	mu        sync.Mutex
	spec      Spec // normalized
	now       func() float64
	consumers map[int64]*bucket
	classes   map[string]*bucket
}

// NewLimiter builds a limiter from a normalized spec. now supplies the
// clock in seconds (any monotonic origin).
func NewLimiter(spec Spec, now func() float64) *Limiter {
	return &Limiter{
		spec:      spec.Normalized(),
		now:       now,
		consumers: make(map[int64]*bucket),
		classes:   make(map[string]*bucket),
	}
}

// Resolve maps a request's class name to the configured class, applying
// the default for empty names. Unknown names return ok=false.
func (l *Limiter) Resolve(class string) (string, bool) {
	if l == nil {
		return class, true
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if class == "" {
		return l.spec.DefaultClass, true
	}
	if len(l.spec.Classes) == 0 {
		return class, true
	}
	for _, c := range l.spec.Classes {
		if c.Name == class {
			return class, true
		}
	}
	return class, false
}

// Allow runs both buckets for one submission: the consumer bucket first,
// then the class bucket. A nil limiter admits everything.
func (l *Limiter) Allow(consumer int64, class string) Decision {
	if l == nil {
		return Decision{OK: true, Class: class}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.now()
	if class == "" {
		class = l.spec.DefaultClass
	}
	if l.spec.ConsumerRate > 0 {
		if len(l.consumers) >= maxConsumerBuckets {
			l.consumers = make(map[int64]*bucket)
		}
		b := l.consumers[consumer]
		if b == nil {
			b = &bucket{tokens: l.spec.ConsumerBurst, last: now}
			l.consumers[consumer] = b
		}
		if ok, wait := b.take(now, l.spec.ConsumerRate, l.spec.ConsumerBurst); !ok {
			return Decision{Scope: "consumer", Class: class, RetryAfter: wait}
		}
	}
	for _, c := range l.spec.Classes {
		if c.Name != class || c.Rate <= 0 {
			continue
		}
		b := l.classes[class]
		if b == nil {
			b = &bucket{tokens: c.Burst, last: now}
			l.classes[class] = b
		}
		if ok, wait := b.take(now, c.Rate, c.Burst); !ok {
			return Decision{Scope: "class", Class: class, RetryAfter: wait}
		}
		break
	}
	return Decision{OK: true, Class: class}
}

// Spec returns the limiter's normalized spec.
func (l *Limiter) Spec() Spec {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.spec
}
