package cloudsim

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// TestRequestSpotRejectionsAllocateNothing pins the retriable rejection
// path: schedulers retry rejected spot requests on every tick, so a
// rejection at capacity, at shared-domain capacity, in a blackout or on
// price must not touch the heap, and must still match its sentinel.
func TestRequestSpotRejectionsAllocateNothing(t *testing.T) {
	_, a, b, _ := domainWorld(t, 0.5)
	// Tenant a fills the shared capacity-2 market: its own cap rejects a
	// third request, and tenant b (holding nothing) is refused by the domain.
	for i := 0; i < 2; i++ {
		if _, err := a.RequestSpot("r4.large", 1.0, nil); err != nil {
			t.Fatal(err)
		}
	}
	c, _ := fixture(t)
	dark, _ := fixture(t)
	if err := dark.AddBlackout(Blackout{From: t0, To: t0.Add(time.Hour)}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		request func() error
		want    error
	}{
		{"capacity", func() error { _, err := a.RequestSpot("r4.large", 1.0, nil); return err }, ErrCapacityUnavailable},
		{"shared capacity", func() error { _, err := b.RequestSpot("r4.large", 1.0, nil); return err }, ErrCapacityUnavailable},
		{"blackout", func() error { _, err := dark.RequestSpot("r4.large", 1.0, nil); return err }, ErrCapacityUnavailable},
		{"price", func() error { _, err := c.RequestSpot("r4.large", 0.01, nil); return err }, ErrPriceAboveMax},
	} {
		if err := tc.request(); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
		if allocs := testing.AllocsPerRun(50, func() { _ = tc.request() }); allocs != 0 {
			t.Errorf("%s: rejection allocates %.1f times, want 0", tc.name, allocs)
		}
	}
}

// TestInstanceIDMatchesSprintf pins the instance ID format: "i-" and at
// least six zero-padded digits.
func TestInstanceIDMatchesSprintf(t *testing.T) {
	for _, n := range []int{0, 1, 9, 10, 99, 100, 12345, 99999, 100000, 999999, 1000000, 123456789} {
		if got, want := instanceID(n), fmt.Sprintf("i-%06d", n); got != want {
			t.Errorf("instanceID(%d) = %q, want %q", n, got, want)
		}
	}
}
