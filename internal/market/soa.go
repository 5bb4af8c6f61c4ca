package market

import (
	"errors"
	"fmt"
	"sort"
	"time"
)

// Store is a TraceSet packed into structure-of-arrays form: every trace's
// timestamps and prices live in two shared flat buffers, addressed by
// per-trace offset spans. The hot simulator queries (PriceAt, AvgOver,
// firstExceed) then run as binary searches and linear walks over contiguous
// int64/float64 arrays instead of per-record time.Time comparisons through
// sort.Search closures — the dominant cost of a sweep cell before this
// layout existed.
//
// Every query is arithmetic-identical to its Trace counterpart: same
// floating-point operations in the same order, so a campaign driven through
// a Store is bit-identical to one driven through the Traces it was packed
// from. trace_test.go pins that equivalence property-style.
//
// A Store is immutable after NewStore and safe for concurrent readers, so
// one Store is shared by every cluster (and every sweep worker) built from
// the same environment.
type Store struct {
	atNanos []int64   // all traces' timestamps, trace-major
	prices  []float64 // parallel to atNanos
	ats     []time.Time

	names   []string // sorted trace names
	offsets []int32  // len(names)+1 span boundaries into the flat buffers
	index   map[string]int
}

// NewStore packs a validated TraceSet. Traces are laid out in sorted-name
// order so the packing is deterministic.
func NewStore(ts TraceSet) *Store {
	names := make([]string, 0, len(ts))
	total := 0
	for name, tr := range ts {
		names = append(names, name)
		total += len(tr.Records)
	}
	sort.Strings(names)
	s := &Store{
		atNanos: make([]int64, 0, total),
		prices:  make([]float64, 0, total),
		ats:     make([]time.Time, 0, total),
		names:   names,
		offsets: make([]int32, 1, len(names)+1),
		index:   make(map[string]int, len(names)),
	}
	for i, name := range names {
		s.index[name] = i
		for _, r := range ts[name].Records {
			s.atNanos = append(s.atNanos, r.At.UnixNano())
			s.prices = append(s.prices, r.Price)
			s.ats = append(s.ats, r.At)
		}
		s.offsets = append(s.offsets, int32(len(s.atNanos)))
	}
	return s
}

// Lookup resolves a trace name to its index. Hot paths resolve once and then
// query by index.
func (s *Store) Lookup(name string) (int, bool) {
	i, ok := s.index[name]
	return i, ok
}

// Names returns the packed trace names in layout (sorted) order.
func (s *Store) Names() []string { return s.names }

// span returns the trace's [lo, hi) window into the flat buffers.
func (s *Store) span(ti int) (lo, hi int) {
	return int(s.offsets[ti]), int(s.offsets[ti+1])
}

// searchAfter returns the first index in at with a timestamp strictly after
// tNanos — the flat-buffer equivalent of sort.Search over Record.At.After.
func searchAfter(at []int64, tNanos int64) int {
	lo, hi := 0, len(at)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if at[mid] <= tNanos {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// PriceAt is Trace.PriceAt by trace index: the price of the latest record at
// or before t, extrapolating the first record backward (ok=false) and the
// last record forward (hold-last-price, ok=true).
func (s *Store) PriceAt(ti int, t time.Time) (price float64, ok bool) {
	lo, hi := s.span(ti)
	if lo == hi {
		return 0, false
	}
	i := lo + searchAfter(s.atNanos[lo:hi], t.UnixNano())
	if i == lo {
		return s.prices[lo], false
	}
	return s.prices[i-1], true
}

// AvgOver is Trace.AvgOver by trace index: the time-weighted average price
// over [from, to), segment by segment in the same floating-point order.
//
// The window splits into a leading partial segment (from → first record
// after it), whole record-to-record segments, and a trailing partial
// segment (last record before to → to). Each segment adds price·seconds to
// the sum exactly as Trace.AvgOver does; the only saving is that a whole
// segment reuses the previous one's seconds when its nanosecond length is
// the same. Duration.Seconds is a pure function of the length, so on the
// 1-minute grid the generators emit the conversion runs once per call
// instead of once per record, with bit-identical products.
func (s *Store) AvgOver(ti int, from, to time.Time) (float64, error) {
	if !from.Before(to) {
		return 0, fmt.Errorf("market: AvgOver with from %v >= to %v", from, to)
	}
	lo, hi := s.span(ti)
	if lo == hi {
		return 0, errors.New("market: trace has no records")
	}
	at := s.atNanos[lo:hi]
	pr := s.prices[lo:hi]
	n := len(at)
	pr = pr[:n] // proves pr[k] in bounds for k < n, so the loop has no checks
	fromNanos, toNanos := from.UnixNano(), to.UnixNano()
	total := time.Duration(toNanos - fromNanos).Seconds()

	i := searchAfter(at, fromNanos)
	p := pr[0]
	if i > 0 {
		p = pr[i-1]
	}
	sum := 0.0 // price·seconds
	if i == n || at[i] >= toNanos {
		// No price change inside the window: one segment.
		sum += p * total
		return sum / total, nil
	}
	sum += p * time.Duration(at[i]-fromNanos).Seconds()
	prev, p := at[i], pr[i]
	var segNanos int64
	segSecs := 0.0 // always time.Duration(segNanos).Seconds()
	for k := i + 1; k < n; k++ {
		next := at[k]
		if next >= toNanos {
			break
		}
		if d := next - prev; d != segNanos {
			segNanos, segSecs = d, time.Duration(d).Seconds()
		}
		sum += p * segSecs
		prev, p = next, pr[k]
	}
	sum += p * time.Duration(toNanos-prev).Seconds()
	return sum / total, nil
}

// FirstExceed returns the first instant strictly after `after` at which the
// market price rises above maxPrice, under the hold-last-price contract: a
// trace whose remaining records never exceed maxPrice reports found=false
// (the held final price cannot cross it). The returned time is the original
// record timestamp, so downstream scheduling is identical to the Trace path.
func (s *Store) FirstExceed(ti int, after time.Time, maxPrice float64) (time.Time, bool) {
	lo, hi := s.span(ti)
	at := s.atNanos[lo:hi]
	i := lo + searchAfter(at, after.UnixNano())
	for ; i < hi; i++ {
		if s.prices[i] > maxPrice {
			return s.ats[i], true
		}
	}
	return time.Time{}, false
}
