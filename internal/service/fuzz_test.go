package service

import (
	"testing"
	"time"
)

// FuzzServiceConfig drives the service over arbitrary small batteries and
// geometries — up to 12 tenants, 1–5 shards, 1–5 in flight, either
// admission policy, budget and deadline caps the battery straddles, and a
// shared capacity of 0–3 per type — and checks the delivery and accounting
// contract that must hold for every configuration:
//
//  1. every tenant is delivered exactly once, in admission order;
//  2. Admitted + Rejected + Failed = Tenants;
//  3. Waves is the sum over shards of ceil(queue / MaxInFlight);
//  4. the cross-tenant capacity audit finds nothing.
func FuzzServiceConfig(f *testing.F) {
	f.Add(uint64(11), byte(12), byte(4), byte(3), false, byte(0), byte(0), byte(2))
	f.Add(uint64(3), byte(7), byte(1), byte(1), true, byte(10), byte(0), byte(0))
	f.Add(uint64(5), byte(12), byte(5), byte(5), true, byte(4), byte(60), byte(1))
	f.Add(uint64(9), byte(0), byte(2), byte(2), false, byte(1), byte(1), byte(3))

	env, bench, curves := testWorld(f)
	f.Fuzz(func(t *testing.T, seed uint64, nSel, shardSel, inflightSel byte, fair bool, budgetCap, deadlineHours, capacity byte) {
		tenants := DefaultBattery(int(nSel)%13, seed)
		cfg := Config{
			Shards:      1 + int(shardSel)%5,
			MaxInFlight: 1 + int(inflightSel)%5,
			Admission:   AdmissionFIFO,
			MaxBudget:   float64(budgetCap % 32),
			MaxDeadline: time.Duration(deadlineHours%128) * time.Hour,
			Contention:  capacity%4 > 0,
			Capacity:    int(capacity % 4),
			SurgeSlope:  0.5,
		}
		if fair {
			cfg.Admission = AdmissionWeightedFair
		}
		// Budgets and deadlines straddle the caps (and include the
		// unconstrained zero) so admission control has texture.
		for i := range tenants {
			tenants[i].Budget = cfg.MaxBudget * []float64{0, 0.5, 0.9, 1.5}[i%4]
			tenants[i].Deadline = cfg.MaxDeadline * time.Duration([]int{1, 2, 0}[i%3]) / 2
		}
		sum, got := runService(t, env, bench, curves, tenants, cfg)

		if len(got) != len(tenants) {
			t.Fatalf("%d results for %d tenants", len(got), len(tenants))
		}
		seen := make([]bool, len(tenants))
		queue := make([]int, cfg.Shards)
		for k, r := range got {
			if r.Index < 0 || r.Index >= len(tenants) || seen[r.Index] {
				t.Fatalf("result %d: tenant index %d delivered twice or out of range", k, r.Index)
			}
			seen[r.Index] = true
			if r.Tenant.ID != tenants[r.Index].ID {
				t.Fatalf("result %d: tenant %s at index %d", k, r.Tenant.ID, r.Index)
			}
			if k > 0 {
				prev := got[k-1]
				fp, fr := 1/prev.Tenant.Weight, 1/r.Tenant.Weight
				inOrder := prev.Index < r.Index
				if fair {
					inOrder = fp < fr || (fp == fr && prev.Index < r.Index)
				}
				if !inOrder {
					t.Fatalf("%s: tenant %d delivered after tenant %d", cfg.Admission, r.Index, prev.Index)
				}
			}
			if r.Shard < 0 || r.Shard >= cfg.Shards {
				t.Fatalf("tenant %d on shard %d of %d", r.Index, r.Shard, cfg.Shards)
			}
			if r.Admitted {
				queue[r.Shard]++
			} else if r.Wave != -1 || r.Reason == "" || r.Report != nil {
				t.Fatalf("rejected tenant %d: %+v", r.Index, r)
			}
		}
		if sum.Admitted+sum.Rejected+sum.Failed != sum.Tenants || sum.Tenants != len(tenants) {
			t.Fatalf("admitted %d + rejected %d + failed %d != tenants %d",
				sum.Admitted, sum.Rejected, sum.Failed, sum.Tenants)
		}
		waves := 0
		for _, q := range queue {
			waves += (q + cfg.MaxInFlight - 1) / cfg.MaxInFlight
		}
		if sum.Waves != waves {
			t.Fatalf("%d waves, want %d for shard queues %v at %d in flight", sum.Waves, waves, queue, cfg.MaxInFlight)
		}
		if len(sum.Capacity) != 0 {
			t.Fatalf("capacity oversubscription: %v", sum.Capacity)
		}
	})
}
