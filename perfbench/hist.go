package main

import (
	"math/bits"
	"time"
)

// hist is a preallocated log-linear latency histogram in nanoseconds:
// values below 2*histSub are exact, larger ones fall into buckets
// 1/histSub of their power of two wide (under 1.6% relative error).
// Recording never allocates, so it is safe inside the timed loops.
// Quantiles interpolate by rank inside the hit bucket, so two runs that
// land in the same bucket still report different values.
type hist struct {
	n      uint64
	counts [histOctaves * histSub]uint64
}

const (
	histSubBits = 6
	histSub     = 1 << histSubBits
	histOctaves = 40 // up to about 9 minutes in nanoseconds
)

func histIndex(v uint64) int {
	if v < 2*histSub {
		return int(v)
	}
	shift := bits.Len64(v) - histSubBits - 1
	if i := shift*histSub + int(v>>uint(shift)); i < histOctaves*histSub {
		return i
	}
	return histOctaves*histSub - 1
}

// histBucket returns the lower bound and width of bucket idx.
func histBucket(idx int) (lo, width float64) {
	if idx < 2*histSub {
		return float64(idx), 1
	}
	shift := idx/histSub - 1
	m := idx - shift*histSub
	return float64(uint64(m) << uint(shift)), float64(uint64(1) << uint(shift))
}

func (h *hist) record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[histIndex(uint64(d))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	h.n += o.n
	for i, c := range o.counts {
		h.counts[i] += c
	}
}

// quantile returns the q-quantile in nanoseconds (0 when empty).
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n-1)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		fc := float64(c)
		if rank < cum+fc {
			lo, w := histBucket(i)
			return lo + w*(rank-cum+0.5)/fc
		}
		cum += fc
	}
	lo, w := histBucket(len(h.counts) - 1)
	return lo + w
}

func (h *hist) p99us() float64 { return h.quantile(0.99) / 1e3 }
