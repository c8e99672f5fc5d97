package main

import (
	"runtime"
	"time"
)

// tracer records one span per program call the benchmark makes while
// tracing: the call's name, its duration, and the heap-allocation and
// GC counters over the call. A nil tracer records nothing, so the
// untraced run pays one nil check per call.
type tracer struct {
	spans []span
}

type span struct {
	name       string
	d          time.Duration
	allocBytes uint64
	mallocs    uint64
	gcs        uint32
}

// call runs fn, adds its duration to *host when host is non-nil, and on
// a non-nil tracer records it as a span named name.
func (t *tracer) call(name string, host *time.Duration, fn func() error) error {
	if t == nil {
		t0 := time.Now()
		err := fn()
		*host += time.Since(t0)
		return err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	runtime.ReadMemStats(&after)
	if host != nil {
		*host += d
	}
	t.spans = append(t.spans, span{
		name:       name,
		d:          d,
		allocBytes: after.TotalAlloc - before.TotalAlloc,
		mallocs:    after.Mallocs - before.Mallocs,
		gcs:        after.NumGC - before.NumGC,
	})
	return err
}

func (s span) seconds() float64 { return s.d.Seconds() }
func (s span) allocMB() float64 { return float64(s.allocBytes) / (1 << 20) }

// last returns the most recent span named name.
func (t *tracer) last(name string) span {
	for i := len(t.spans) - 1; i >= 0; i-- {
		if t.spans[i].name == name {
			return t.spans[i]
		}
	}
	return span{name: name}
}

// sumSince adds up the spans named name recorded at or after index mark.
func (t *tracer) sumSince(mark int, name string) span {
	sum := span{name: name}
	for _, sp := range t.spans[mark:] {
		if sp.name == name {
			sum.d += sp.d
			sum.allocBytes += sp.allocBytes
			sum.mallocs += sp.mallocs
			sum.gcs += sp.gcs
		}
	}
	return sum
}
