package cloudsim

// CapacityDomain is the shared market state of one service shard: every
// cluster attached to it (Cluster.SetCapacityDomain) draws per-type spot
// capacity from one pool — the per-type limit is the cluster catalog's
// Capacity, 0 meaning unlimited — and aggregate demand lifts quoted and
// billed spot prices through a linear surge multiplier. One tenant's fleet
// therefore consumes room and raises prices that every co-resident tenant
// sees, which is the coupling a private-cluster sweep cannot express.
//
// A domain belongs to one serialized shard (the service arbiter runs one
// campaign at a time per shard), so it carries no locking and is NOT safe
// for concurrent use across shards — build one per shard wave.
//
// Deliberately untouched: the revocation schedule. Notices and revocations
// still come from raw-trace price exceedance (market.Store.FirstExceed vs
// the user's maximum price), so demand pressure changes what tenants pay,
// never when the provider reclaims — the ledger/trace invariants hold
// unchanged under contention.
type CapacityDomain struct {
	slope float64
	// slots interns the type names of attached clusters' catalogs into
	// dense indices of inUse; each cluster resolves its markets' slots
	// once at SetCapacityDomain, so launches and quotes count and price
	// by index.
	slots map[string]int
	inUse []int
}

// NewCapacityDomain returns an empty domain. surgeSlope is the demand
// multiplier's gradient: at full per-type utilization a spot quote (and
// the launch-sampled billing multiplier) is 1+surgeSlope times the trace
// price. A zero slope shares capacity without moving prices.
func NewCapacityDomain(surgeSlope float64) *CapacityDomain {
	return &CapacityDomain{slope: surgeSlope, slots: make(map[string]int)}
}

// slot returns the type's dense index, interning it on first sight.
func (d *CapacityDomain) slot(typeName string) int {
	i, ok := d.slots[typeName]
	if !ok {
		i = len(d.inUse)
		d.slots[typeName] = i
		d.inUse = append(d.inUse, 0)
	}
	return i
}

// InUse reports the live spot instances of a type across every attached
// cluster.
func (d *CapacityDomain) InUse(typeName string) int {
	if d == nil {
		return 0
	}
	if i, ok := d.slots[typeName]; ok {
		return d.inUse[i]
	}
	return 0
}

// hasRoom reports whether one more spot instance of the type at slot fits
// under the given per-type limit (0 = unlimited).
func (d *CapacityDomain) hasRoom(slot, capacity int) bool {
	return capacity <= 0 || d.inUse[slot] < capacity
}

// acquire counts one launched spot instance. The caller must have checked
// hasRoom under the same shard turn.
func (d *CapacityDomain) acquire(slot int) { d.inUse[slot]++ }

// release returns one spot instance's capacity at settlement.
func (d *CapacityDomain) release(slot int) { d.inUse[slot]-- }

// surgeFactor is the demand-pressure price multiplier for the type at slot
// right now: 1 + slope·(inUse/capacity). Uncapped types (capacity 0) and a
// zero slope quote the flat trace price.
func (d *CapacityDomain) surgeFactor(slot, capacity int) float64 {
	if d.slope == 0 || capacity <= 0 {
		return 1
	}
	return 1 + d.slope*float64(d.inUse[slot])/float64(capacity)
}
