package market

import (
	"math"
	"math/rand/v2"
	"testing"
	"time"
)

// randomTraceSet builds a seeded multi-trace set with irregular record
// spacing, so store/trace equivalence is exercised away from the neat
// 1-minute grid the generators emit.
func randomTraceSet(seed uint64, traces, records int) TraceSet {
	rng := rand.New(rand.NewPCG(seed, 0x50a))
	start := time.Date(2023, 4, 1, 0, 0, 0, 0, time.UTC)
	ts := TraceSet{}
	for t := 0; t < traces; t++ {
		name := string(rune('a'+t)) + ".large"
		tr := &Trace{Type: name}
		at := start
		price := 0.05 + rng.Float64()*0.3
		for i := 0; i < records; i++ {
			tr.Records = append(tr.Records, Record{At: at, Price: price})
			at = at.Add(time.Duration(1+rng.IntN(7200)) * time.Second)
			price = math.Max(0.01, price*(0.9+rng.Float64()*0.2))
		}
		ts[name] = tr
	}
	return ts
}

// queryInstants picks instants before, inside (both on and off record
// boundaries), and after the trace.
func queryInstants(rng *rand.Rand, tr *Trace, n int) []time.Time {
	out := []time.Time{
		tr.Start().Add(-time.Hour),
		tr.Start(),
		tr.Start().Add(time.Nanosecond),
		tr.End().Add(-time.Nanosecond),
		tr.End(),
		tr.End().Add(48 * time.Hour),
	}
	span := tr.End().Sub(tr.Start())
	for i := 0; i < n; i++ {
		out = append(out, tr.Start().Add(time.Duration(rng.Int64N(int64(span)))))
		// Record boundaries and their 1ns neighbours are the step edges.
		r := tr.Records[rng.IntN(len(tr.Records))]
		out = append(out, r.At, r.At.Add(-time.Nanosecond), r.At.Add(time.Nanosecond))
	}
	return out
}

func TestStoreMatchesTraceBitIdentical(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		ts := randomTraceSet(seed, 4, 300)
		store := NewStore(ts)
		rng := rand.New(rand.NewPCG(seed, 0xfee1))
		for name, tr := range ts {
			ti, ok := store.Lookup(name)
			if !ok {
				t.Fatalf("seed %d: store missing trace %q", seed, name)
			}
			instants := queryInstants(rng, tr, 200)
			for _, at := range instants {
				wantP, wantOK := tr.PriceAt(at)
				gotP, gotOK := store.PriceAt(ti, at)
				if wantP != gotP || wantOK != gotOK {
					t.Fatalf("seed %d %s: PriceAt(%v) = %v,%v want %v,%v",
						seed, name, at, gotP, gotOK, wantP, wantOK)
				}
			}
			for i := 0; i+1 < len(instants); i += 2 {
				from, to := instants[i], instants[i+1]
				if to.Before(from) {
					from, to = to, from
				}
				if !from.Before(to) {
					continue
				}
				wantAvg, wantErr := tr.AvgOver(from, to)
				gotAvg, gotErr := store.AvgOver(ti, from, to)
				if (wantErr == nil) != (gotErr == nil) {
					t.Fatalf("seed %d %s: AvgOver err mismatch: %v vs %v", seed, name, wantErr, gotErr)
				}
				// Bit-identity, not approximate equality: the store must run
				// the same floating-point operations in the same order.
				if math.Float64bits(wantAvg) != math.Float64bits(gotAvg) {
					t.Fatalf("seed %d %s: AvgOver(%v,%v) = %x want %x",
						seed, name, from, to, math.Float64bits(gotAvg), math.Float64bits(wantAvg))
				}
			}
		}
	}
}

// TestStoreTrailingHourMatchesTrace pins the window shape production asks
// for — the trailing hour [now−1h, now) of Eq. 1 quotes — bit for bit
// against Trace.AvgOver, on the generators' 1-minute grid (where the
// store reuses one segment length across the whole window) and on
// irregular gaps (where the length changes every segment).
func TestStoreTrailingHourMatchesTrace(t *testing.T) {
	specs, err := DefaultSpecs(DefaultCatalog())
	if err != nil {
		t.Fatal(err)
	}
	start := time.Date(2017, 3, 1, 0, 0, 0, 0, time.UTC)
	grid, err := GenerateSet(specs, start, start.Add(5*24*time.Hour), 3)
	if err != nil {
		t.Fatal(err)
	}
	for name, ts := range map[string]TraceSet{"grid": grid, "irregular": randomTraceSet(11, 3, 400)} {
		store := NewStore(ts)
		rng := rand.New(rand.NewPCG(11, 0x70a1))
		for typ, tr := range ts {
			ti, _ := store.Lookup(typ)
			nows := []time.Time{
				tr.Start().Add(-time.Minute),     // whole window before the first record
				tr.Start().Add(30 * time.Minute), // window straddles the first record
				tr.End(),
				tr.End().Add(30 * time.Minute), // window straddles the last record
				tr.End().Add(3 * time.Hour),    // whole window past the last record
			}
			for k := 0; k < 100; k++ {
				r := tr.Records[rng.IntN(len(tr.Records))].At
				off := tr.Start().Add(time.Duration(rng.Int64N(int64(tr.End().Sub(tr.Start())))))
				nows = append(nows, r, r.Add(-time.Nanosecond), r.Add(time.Nanosecond), off)
			}
			for _, now := range nows {
				from := now.Add(-time.Hour)
				want, wantErr := tr.AvgOver(from, now)
				got, gotErr := store.AvgOver(ti, from, now)
				if wantErr != nil || gotErr != nil {
					t.Fatalf("%s %s: AvgOver errors %v / %v", name, typ, wantErr, gotErr)
				}
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s %s: trailing hour to %v = %x, want %x",
						name, typ, now, math.Float64bits(got), math.Float64bits(want))
				}
			}
		}
	}
}

// firstExceedRef is the pre-SoA reference: linear scan for the first record
// strictly after `after` priced above maxPrice (see cloudsim.firstExceed).
func firstExceedRef(tr *Trace, after time.Time, maxPrice float64) (time.Time, bool) {
	for _, r := range tr.Records {
		if r.At.After(after) && r.Price > maxPrice {
			return r.At, true
		}
	}
	return time.Time{}, false
}

func TestStoreFirstExceedMatchesReference(t *testing.T) {
	ts := randomTraceSet(99, 3, 250)
	store := NewStore(ts)
	rng := rand.New(rand.NewPCG(99, 0xbeef))
	for name, tr := range ts {
		ti, _ := store.Lookup(name)
		for _, after := range queryInstants(rng, tr, 100) {
			for _, maxPrice := range []float64{0, 0.04, 0.1, 0.2, 1e9} {
				wantAt, wantOK := firstExceedRef(tr, after, maxPrice)
				gotAt, gotOK := store.FirstExceed(ti, after, maxPrice)
				if wantOK != gotOK || (wantOK && !wantAt.Equal(gotAt)) {
					t.Fatalf("%s: FirstExceed(%v, %v) = %v,%v want %v,%v",
						name, after, maxPrice, gotAt, gotOK, wantAt, wantOK)
				}
			}
		}
	}
}

func TestStoreNamesDeterministic(t *testing.T) {
	ts := randomTraceSet(5, 5, 10)
	a, b := NewStore(ts), NewStore(ts)
	if len(a.Names()) != 5 {
		t.Fatalf("Names = %v", a.Names())
	}
	for i, n := range a.Names() {
		if b.Names()[i] != n {
			t.Fatalf("nondeterministic packing order: %v vs %v", a.Names(), b.Names())
		}
		if i > 0 && a.Names()[i-1] >= n {
			t.Fatalf("names not sorted: %v", a.Names())
		}
	}
}
