package wire

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/mcc-cmi/cmi/internal/obs"
)

// Size-classed encode buffers. The event hot path (delivery fan-out,
// spool appends) borrows a buffer per record instead of allocating, and
// the HTTP list bodies one per response: GetBuf returns a zero-length
// slice whose capacity covers the requested size, PutBuf recycles it.
// Classes are powers of four so a record lands at most one class above
// its size; the 256 KiB and 1 MiB classes hold the long list bodies (a
// process monitor of thousands of rows, a queue of thousands of
// notifications). Requests beyond the largest class are served by a
// plain allocation and never pooled.
var bufClasses = [...]int{256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20}

var bufPools [len(bufClasses)]sync.Pool

// pool traffic counters, sampled by the cmi_wire_pool_* series. A hit
// is a Get served from the pool; a miss allocated (first use of a
// class, pool drained by GC, or an oversized request).
var (
	poolGets   atomic.Uint64
	poolMisses atomic.Uint64
)

func init() {
	for i := range bufPools {
		size := bufClasses[i]
		bufPools[i].New = func() any {
			poolMisses.Add(1)
			b := make([]byte, 0, size)
			return &b
		}
	}
}

// GetBuf borrows a zero-length buffer with capacity at least n.
// Return it with PutBuf when the encoded bytes are no longer
// referenced.
func GetBuf(n int) []byte {
	poolGets.Add(1)
	for i, size := range bufClasses {
		if n <= size {
			return (*bufPools[i].Get().(*[]byte))[:0]
		}
	}
	poolMisses.Add(1)
	return make([]byte, 0, n)
}

// PutBuf recycles a buffer obtained from GetBuf. Buffers that grew
// past their class (append reallocation) are re-binned by capacity;
// buffers larger than the largest class are dropped for the GC, so a
// one-off megabyte body is never handed to a small request.
func PutBuf(b []byte) {
	c := cap(b)
	if c > bufClasses[len(bufClasses)-1] {
		return
	}
	for i := len(bufClasses) - 1; i >= 0; i-- {
		if c >= bufClasses[i] {
			b = b[:0]
			bufPools[i].Put(&b)
			return
		}
	}
}

// PoolStats returns the cumulative Get count and miss count (hits are
// gets minus misses).
func PoolStats() (gets, misses uint64) {
	return poolGets.Load(), poolMisses.Load()
}

// Instrument registers the package's metric series on reg: the encode
// latency histogram (shared by every log that encodes binary records)
// and the buffer pool hit/miss counters, sampled at exposition time
// from the package counters. It returns the histogram for callers to
// observe into; a nil registry returns nil (observing is a no-op).
func Instrument(reg *obs.Registry) *obs.Histogram {
	if reg == nil {
		return nil
	}
	reg.CounterFunc("cmi_wire_pool_hits_total",
		"Encode buffers served from the size-class pool.",
		func() float64 {
			g, m := PoolStats()
			if g < m {
				return 0
			}
			return float64(g - m)
		})
	reg.CounterFunc("cmi_wire_pool_misses_total",
		"Encode buffer requests that allocated (cold pool or oversized).",
		func() float64 {
			_, m := PoolStats()
			return float64(m)
		})
	return reg.Histogram("cmi_wire_encode_seconds",
		"Time to binary-encode one journal record batch.", encodeBuckets)
}

// encodeBuckets suit in-memory encoding: sub-microsecond to ~1ms.
var encodeBuckets = []time.Duration{
	time.Microsecond,
	4 * time.Microsecond,
	16 * time.Microsecond,
	64 * time.Microsecond,
	256 * time.Microsecond,
	time.Millisecond,
}
