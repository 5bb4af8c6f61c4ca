package market

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"
)

// Record is one spot-price observation: the market price that became
// effective at At and holds until the next record.
type Record struct {
	At    time.Time
	Price float64 // USD per hour
}

// Trace is the spot-price history of a single market (one instance type in
// one region). Records must be strictly increasing in time; spot prices are
// step functions, so the price at time t is the price of the latest record
// at or before t.
type Trace struct {
	Type    string // instance type name
	Records []Record
}

// Validate checks monotone timestamps and positive finite prices.
func (tr *Trace) Validate() error {
	if len(tr.Records) == 0 {
		return errors.New("market: trace has no records")
	}
	for i, r := range tr.Records {
		if !(r.Price > 0) || math.IsInf(r.Price, 1) {
			// The negated comparison also catches NaN, which compares
			// false against everything and would otherwise slip through.
			return fmt.Errorf("market: record %d has non-positive or non-finite price %v", i, r.Price)
		}
		if i > 0 && !tr.Records[i-1].At.Before(r.At) {
			return fmt.Errorf("market: record %d timestamp %v not after previous %v",
				i, r.At, tr.Records[i-1].At)
		}
	}
	return nil
}

// Start returns the first record's timestamp.
func (tr *Trace) Start() time.Time {
	if len(tr.Records) == 0 {
		return time.Time{}
	}
	return tr.Records[0].At
}

// End returns the last record's timestamp.
func (tr *Trace) End() time.Time {
	if len(tr.Records) == 0 {
		return time.Time{}
	}
	return tr.Records[len(tr.Records)-1].At
}

// PriceAt returns the market price effective at t: the price of the latest
// record at or before t. Querying before the first record returns the first
// record's price (ok=false flags the extrapolation).
//
// Hold-last-price contract: querying at or after the final record returns
// that record's price with ok=true — a trace that ends before the horizon
// of interest holds its last price forever. AvgOver, MaxOver, and the
// cloudsim billing/revocation machinery all inherit this extension.
func (tr *Trace) PriceAt(t time.Time) (price float64, ok bool) {
	n := len(tr.Records)
	if n == 0 {
		return 0, false
	}
	// First index with At > t.
	i := sort.Search(n, func(i int) bool { return tr.Records[i].At.After(t) })
	if i == 0 {
		return tr.Records[0].Price, false
	}
	return tr.Records[i-1].Price, true
}

// AvgOver returns the time-weighted average price over [from, to). This is
// the "average price of this instance in the last hour" term of Eq. 1.
func (tr *Trace) AvgOver(from, to time.Time) (float64, error) {
	if !from.Before(to) {
		return 0, fmt.Errorf("market: AvgOver with from %v >= to %v", from, to)
	}
	if len(tr.Records) == 0 {
		return 0, errors.New("market: trace has no records")
	}
	total := to.Sub(from)
	sum := 0.0 // price·seconds
	cursor := from
	for cursor.Before(to) {
		p, _ := tr.PriceAt(cursor)
		// Find the next price change after cursor.
		n := len(tr.Records)
		i := sort.Search(n, func(i int) bool { return tr.Records[i].At.After(cursor) })
		next := to
		if i < n && tr.Records[i].At.Before(to) {
			next = tr.Records[i].At
		}
		sum += p * next.Sub(cursor).Seconds()
		cursor = next
	}
	return sum / total.Seconds(), nil
}

// MaxOver returns the maximum price in force over the half-open window
// [from, to): the step-function price entering the window (a change landing
// exactly at `from` counts) plus every change strictly inside it; a change
// exactly at `to` belongs to the next window, matching AvgOver.
// It is used to decide revocation labels: a spot request with maximum price
// b is revoked within the window iff MaxOver > b.
func (tr *Trace) MaxOver(from, to time.Time) float64 {
	maxP := 0.0
	// The price effective at `from` counts (step function): it is what the
	// window opens at even when the last change predates the window.
	if p, ok := tr.PriceAt(from); ok && p > maxP {
		maxP = p
	}
	for _, r := range tr.Records {
		if !r.At.Before(from) && r.At.Before(to) && r.Price > maxP {
			maxP = r.Price
		}
	}
	return maxP
}

// TraceSet maps instance type names to traces, the in-memory equivalent of
// one region's CSV in the Kaggle dataset.
type TraceSet map[string]*Trace

// Validate checks every member trace.
func (ts TraceSet) Validate() error {
	for name, tr := range ts {
		if tr.Type != name {
			return fmt.Errorf("market: trace keyed %q has Type %q", name, tr.Type)
		}
		if err := tr.Validate(); err != nil {
			return fmt.Errorf("market: trace %q: %w", name, err)
		}
	}
	return nil
}
