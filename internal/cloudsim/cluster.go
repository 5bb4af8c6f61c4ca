// Package cloudsim is a discrete-event simulator of the transient-resource
// cloud SpotTune runs on (§II-A): EC2-like spot markets with user-set
// maximum prices, revocation when the market price exceeds them, two-minute
// termination notices, per-second billing at the market price, the
// first-instance-hour full-refund rule, and an S3-like object store with a
// CPU-bound throughput model calibrated to the paper's measurements (§IV-F).
//
// All time is virtual (simclock.Virtual), so multi-day tuning campaigns
// replay in milliseconds while preserving every economic rule SpotTune's
// provisioning strategy exploits.
package cloudsim

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"time"

	"spottune/internal/market"
	"spottune/internal/obs"
	"spottune/internal/simclock"
)

// NoticeLeadTime is how far ahead of an interruption the termination notice
// arrives (AWS delivers it two minutes early).
const NoticeLeadTime = 2 * time.Minute

// RefundWindow is the first-instance-hour window: instances revoked by the
// provider within it are fully refunded.
const RefundWindow = time.Hour

// InstanceState tracks a VM through its lifecycle.
type InstanceState int

// Lifecycle states.
const (
	StateRunning InstanceState = iota + 1
	StateNoticed
	StateRevoked
	StateTerminated
)

func (s InstanceState) String() string {
	switch s {
	case StateRunning:
		return "running"
	case StateNoticed:
		return "noticed"
	case StateRevoked:
		return "revoked"
	case StateTerminated:
		return "terminated"
	default:
		return fmt.Sprintf("InstanceState(%d)", int(s))
	}
}

// EndReason records why an instance stopped.
type EndReason int

// End reasons.
const (
	EndRevoked EndReason = iota + 1
	EndUserTerminated
)

func (r EndReason) String() string {
	switch r {
	case EndRevoked:
		return "revoked"
	case EndUserTerminated:
		return "user-terminated"
	default:
		return fmt.Sprintf("EndReason(%d)", int(r))
	}
}

// Instance is one running (or finished) VM.
type Instance struct {
	ID       string
	Type     market.InstanceType
	MaxPrice float64 // user's maximum price (spot) or 0 for on-demand
	OnDemand bool

	LaunchedAt time.Time
	State      InstanceState
	EndedAt    time.Time
	End        EndReason

	// NoticeAt/RevokeAt are the already-determined future market events for
	// this instance (zero when the trace never exceeds the maximum price).
	// They let schedulers jump straight to the next interesting instant
	// instead of sampling instance state on a poll grid.
	NoticeAt time.Time
	RevokeAt time.Time

	// Surge is the demand-pressure billing multiplier sampled at launch
	// (1 outside a capacity domain): spot billing integrates the trace
	// price times this factor. Zero is read as 1 for instances built
	// outside the cluster constructors.
	Surge float64

	// ti is the type's store trace index (spot instances only): billing
	// and the per-type spot count address the market by it.
	ti int

	noticeEv simclock.EventRef
	revokeEv simclock.EventRef
	// onNotice is the subscriber registered at request time; fault
	// injections (mass preemptions) deliver their notices through it too.
	onNotice NoticeFunc
}

// RefundDeadline is the end of the first-instance-hour window: a provider
// revocation at or before it is fully refunded.
func (i *Instance) RefundDeadline() time.Time {
	return i.LaunchedAt.Add(RefundWindow)
}

// Running reports whether the instance is still usable (running or noticed).
func (i *Instance) Running() bool {
	return i.State == StateRunning || i.State == StateNoticed
}

// Usage is the billing ledger entry for one finished instance.
type Usage struct {
	InstanceID string
	TypeName   string
	OnDemand   bool // reliable-tier rental (never revoked, never refunded)
	Launched   time.Time
	Ended      time.Time
	End        EndReason
	GrossCost  float64 // integrated market price before refund, USD
	Refunded   float64 // refund granted under the first-hour rule, USD
}

// NetCost is what the user actually pays.
func (u Usage) NetCost() float64 { return u.GrossCost - u.Refunded }

// Duration is the instance lifetime.
func (u Usage) Duration() time.Duration { return u.Ended.Sub(u.Launched) }

// Ledger accumulates finished-instance usage.
type Ledger struct {
	Records []Usage
}

// TotalGross sums pre-refund cost.
func (l *Ledger) TotalGross() float64 {
	s := 0.0
	for _, u := range l.Records {
		s += u.GrossCost
	}
	return s
}

// TotalRefunded sums granted refunds.
func (l *Ledger) TotalRefunded() float64 {
	s := 0.0
	for _, u := range l.Records {
		s += u.Refunded
	}
	return s
}

// TotalNet sums the user's actual spend.
func (l *Ledger) TotalNet() float64 { return l.TotalGross() - l.TotalRefunded() }

// NoticeFunc is invoked when a termination notice is delivered for an
// instance, NoticeLeadTime before revocation. It runs on the simulation
// event thread and must not block.
type NoticeFunc func(inst *Instance, now time.Time)

// Cluster is the simulated cloud: spot markets driven by price traces plus
// the billing machinery.
type Cluster struct {
	clk     *simclock.Virtual
	catalog *market.Catalog
	traces  market.TraceSet
	// store is the SoA packing of traces every hot-path price query runs
	// against (bit-identical to the Trace methods). It is immutable and may
	// be shared across many clusters built from one environment.
	store *market.Store
	// types is the catalog entry of each market by store trace index (zero
	// Name for a trace outside the catalog), resolved once so quotes and
	// launches read the Capacity cap without a second name lookup.
	types []market.InstanceType

	nextID    int
	instances map[string]*Instance
	ledger    Ledger

	// runningSpot counts live spot instances by store trace index,
	// enforcing the catalog's per-type Capacity cap (0 = unlimited).
	// On-demand capacity is never capped.
	runningSpot []int

	// domain, when attached (SetCapacityDomain), shares per-type spot
	// capacity and demand-pressure pricing with every other cluster on the
	// same domain (multi-tenant service shards). Nil — the default —
	// keeps the cluster a private world, bit-identical to pre-service
	// behavior. domainSlot maps each catalog market's store index to its
	// dense domain slot (-1 for a trace outside the catalog).
	domain     *CapacityDomain
	domainSlot []int

	// blackouts are the installed capacity-unavailability windows, in
	// installation order (fault injection; see faults.go).
	blackouts []Blackout

	// trc receives billing events (ledger postings, first-hour refunds) at
	// the exact moment each ledger record is appended, so a trace's
	// posting order is the ledger's record order. Never nil (obs.Nop).
	trc obs.Tracer
}

// NewCluster builds a cluster over the given catalog and per-market traces.
// Every catalog type must have a trace.
func NewCluster(clk *simclock.Virtual, cat *market.Catalog, traces market.TraceSet) (*Cluster, error) {
	return NewClusterWithStore(clk, cat, traces, nil)
}

// NewClusterWithStore is NewCluster with a pre-packed SoA store for the same
// traces, so environments that build many clusters (sweeps, the streaming
// matrix runner) pack the buffers once and share them read-only. A nil store
// is packed here.
func NewClusterWithStore(clk *simclock.Virtual, cat *market.Catalog, traces market.TraceSet, store *market.Store) (*Cluster, error) {
	if clk == nil {
		return nil, errors.New("cloudsim: nil clock")
	}
	if store == nil {
		if err := traces.Validate(); err != nil {
			return nil, err
		}
		store = market.NewStore(traces)
	}
	types := make([]market.InstanceType, len(store.Names()))
	for _, it := range cat.Types() {
		if _, ok := traces[it.Name]; !ok {
			return nil, fmt.Errorf("cloudsim: no price trace for instance type %q", it.Name)
		}
		ti, ok := store.Lookup(it.Name)
		if !ok {
			return nil, fmt.Errorf("cloudsim: store has no trace for instance type %q", it.Name)
		}
		types[ti] = it
	}
	return &Cluster{
		clk:         clk,
		catalog:     cat,
		traces:      traces,
		store:       store,
		types:       types,
		instances:   make(map[string]*Instance),
		runningSpot: make([]int, len(types)),
		trc:         obs.Nop{},
	}, nil
}

// SetTracer installs the flight recorder billing events flow through
// (nil restores the no-op default). The orchestrator wires its own tracer
// here so cluster-side settlements land in the same recording, in the same
// deterministic single-goroutine order, as orchestration events.
func (c *Cluster) SetTracer(t obs.Tracer) {
	if t == nil {
		t = obs.Nop{}
	}
	c.trc = t
}

// SetCapacityDomain attaches the cluster to a shared capacity/demand domain
// (nil detaches). Attach before any spot request: the domain must see every
// live spot instance to keep its accounting conserved.
func (c *Cluster) SetCapacityDomain(d *CapacityDomain) {
	c.domain, c.domainSlot = d, nil
	if d == nil {
		return
	}
	c.domainSlot = make([]int, len(c.types))
	for ti, it := range c.types {
		c.domainSlot[ti] = -1
		if it.Name != "" {
			c.domainSlot[ti] = d.slot(it.Name)
		}
	}
}

// surgeAt is the live demand-pressure multiplier quoted for the market at
// store index ti (1 without a domain, and for a trace outside the catalog,
// whose zero Capacity reads as uncapped).
func (c *Cluster) surgeAt(ti int) float64 {
	if c.domain == nil {
		return 1
	}
	return c.domain.surgeFactor(c.domainSlot[ti], c.types[ti].Capacity)
}

// Clock exposes the cluster's virtual clock.
func (c *Cluster) Clock() *simclock.Virtual { return c.clk }

// Now is the current virtual instant (shorthand for Clock().Now(); with
// CurrentPrice, AvgPriceLastHour, and OnDemandPrice it makes the cluster a
// policy.MarketView).
func (c *Cluster) Now() time.Time { return c.clk.Now() }

// Catalog exposes the instance catalog.
func (c *Cluster) Catalog() *market.Catalog { return c.catalog }

// Ledger returns the billing ledger (live view).
func (c *Cluster) Ledger() *Ledger { return &c.ledger }

// CurrentPrice returns the spot market price of a type right now.
func (c *Cluster) CurrentPrice(typeName string) (float64, error) {
	ti, ok := c.store.Lookup(typeName)
	if !ok {
		return 0, fmt.Errorf("cloudsim: unknown market %q", typeName)
	}
	p, _ := c.store.PriceAt(ti, c.clk.Now())
	return p * c.surgeAt(ti), nil
}

// AvgPriceLastHour returns the time-weighted average market price over the
// past hour — the price term of Eq. 1.
func (c *Cluster) AvgPriceLastHour(typeName string) (float64, error) {
	ti, ok := c.store.Lookup(typeName)
	if !ok {
		return 0, fmt.Errorf("cloudsim: unknown market %q", typeName)
	}
	now := c.clk.Now()
	avg, err := c.store.AvgOver(ti, now.Add(-time.Hour), now)
	return avg * c.surgeAt(ti), err
}

// OnDemandPrice returns the fixed hourly on-demand quote for a type — the
// reliable-capacity price provisioning policies weigh spot bids against.
func (c *Cluster) OnDemandPrice(typeName string) (float64, error) {
	it, ok := c.catalog.Lookup(typeName)
	if !ok {
		return 0, fmt.Errorf("cloudsim: unknown instance type %q", typeName)
	}
	return it.OnDemandPrice, nil
}

// ErrPriceAboveMax is returned when a spot request's maximum price is below
// the current market price (AWS will not fulfill such requests).
var ErrPriceAboveMax = errors.New("cloudsim: market price above requested maximum")

// RequestSpot launches a spot instance of the given type with the given
// maximum price. If the market ever rises above maxPrice, a notice fires
// NoticeLeadTime beforehand (onNotice may be nil) and the instance is then
// revoked with first-hour refunds applied.
//
// The retriable rejections — ErrCapacityUnavailable (blackout, per-type
// cap, shared-domain cap) and ErrPriceAboveMax — are returned as the bare
// sentinels, unwrapped: they are market state a scheduler retries on
// every tick, so rejecting allocates nothing. A caller that reports one
// adds the type name in its own wrap.
func (c *Cluster) RequestSpot(typeName string, maxPrice float64, onNotice NoticeFunc) (*Instance, error) {
	ti, ok := c.store.Lookup(typeName)
	if !ok || c.types[ti].Name == "" {
		return nil, fmt.Errorf("cloudsim: unknown instance type %q", typeName)
	}
	it := &c.types[ti]
	now := c.clk.Now()
	if c.blackedOut(typeName, now) {
		return nil, ErrCapacityUnavailable
	}
	// The catalog's per-type cap is the same retriable market state as a
	// blackout window: the region has no room for another instance of this
	// type right now, try again (or elsewhere) later.
	if it.Capacity > 0 && c.runningSpot[ti] >= it.Capacity {
		return nil, ErrCapacityUnavailable
	}
	// The shared domain's cap counts co-resident tenants' fleets too, so a
	// cluster can be refused room its private count would have granted.
	if c.domain != nil && !c.domain.hasRoom(c.domainSlot[ti], it.Capacity) {
		return nil, ErrCapacityUnavailable
	}
	cur, _ := c.store.PriceAt(ti, now)
	if cur > maxPrice {
		return nil, ErrPriceAboveMax
	}
	c.nextID++
	inst := &Instance{
		ID:         instanceID(c.nextID),
		Type:       *it,
		MaxPrice:   maxPrice,
		LaunchedAt: now,
		State:      StateRunning,
		Surge:      1,
		ti:         ti,
		onNotice:   onNotice,
	}
	c.instances[inst.ID] = inst
	c.runningSpot[ti]++
	if c.domain != nil {
		// Sampled after acquiring, so an instance's own demand is part of
		// the pressure it is billed under.
		c.domain.acquire(c.domainSlot[ti])
		inst.Surge = c.domain.surgeFactor(c.domainSlot[ti], it.Capacity)
	}

	if exceedAt, found := c.store.FirstExceed(ti, now, maxPrice); found {
		noticeAt := exceedAt.Add(-NoticeLeadTime)
		if noticeAt.Before(now) {
			noticeAt = now
		}
		inst.NoticeAt = noticeAt
		inst.RevokeAt = exceedAt
		inst.noticeEv = c.clk.Schedule(noticeAt, func(at time.Time) {
			if !inst.Running() || inst.State == StateNoticed {
				return
			}
			inst.State = StateNoticed
			if inst.onNotice != nil {
				inst.onNotice(inst, at)
			}
		})
		inst.revokeEv = c.clk.Schedule(exceedAt, func(at time.Time) {
			if !inst.Running() {
				return
			}
			c.finish(inst, at, EndRevoked)
		})
	}
	return inst, nil
}

// RequestOnDemand launches a reliable on-demand instance billed at the fixed
// catalog price. It is never revoked.
func (c *Cluster) RequestOnDemand(typeName string) (*Instance, error) {
	it, ok := c.catalog.Lookup(typeName)
	if !ok {
		return nil, fmt.Errorf("cloudsim: unknown instance type %q", typeName)
	}
	c.nextID++
	inst := &Instance{
		ID:         instanceID(c.nextID),
		Type:       it,
		OnDemand:   true,
		LaunchedAt: c.clk.Now(),
		State:      StateRunning,
		Surge:      1,
	}
	c.instances[inst.ID] = inst
	return inst, nil
}

// instanceID formats the n-th instance ID as "i-" and at least six
// zero-padded digits, the same string as fmt.Sprintf("i-%06d", n).
func instanceID(n int) string {
	var buf [24]byte
	b := append(buf[:0], "i-"...)
	for w := 100000; w > 1 && n < w; w /= 10 {
		b = append(b, '0')
	}
	return string(strconv.AppendInt(b, int64(n), 10))
}

// Terminate shuts an instance down at the user's request (full charge, no
// refund).
func (c *Cluster) Terminate(id string) error {
	inst, ok := c.instances[id]
	if !ok {
		return fmt.Errorf("cloudsim: unknown instance %q", id)
	}
	if !inst.Running() {
		return fmt.Errorf("cloudsim: instance %q already %v", id, inst.State)
	}
	c.finish(inst, c.clk.Now(), EndUserTerminated)
	return nil
}

// finish settles billing and cancels pending events.
func (c *Cluster) finish(inst *Instance, at time.Time, reason EndReason) {
	inst.noticeEv.Cancel()
	inst.revokeEv.Cancel()
	if reason == EndRevoked {
		inst.State = StateRevoked
	} else {
		inst.State = StateTerminated
	}
	inst.EndedAt = at
	inst.End = reason
	if !inst.OnDemand {
		c.runningSpot[inst.ti]--
		if c.domain != nil {
			c.domain.release(c.domainSlot[inst.ti])
		}
	}

	usage := Usage{
		InstanceID: inst.ID,
		TypeName:   inst.Type.Name,
		OnDemand:   inst.OnDemand,
		Launched:   inst.LaunchedAt,
		Ended:      at,
		End:        reason,
	}
	dur := at.Sub(inst.LaunchedAt)
	if dur > 0 {
		if inst.OnDemand {
			usage.GrossCost = inst.Type.OnDemandPrice * dur.Hours()
		} else if avg, err := c.store.AvgOver(inst.ti, inst.LaunchedAt, at); err == nil {
			surge := inst.Surge
			if surge == 0 {
				surge = 1
			}
			usage.GrossCost = avg * dur.Hours() * surge
		}
	}
	// First-instance-hour refund: only provider revocations qualify.
	if reason == EndRevoked && !inst.OnDemand && dur <= RefundWindow {
		usage.Refunded = usage.GrossCost
	}
	c.ledger.Records = append(c.ledger.Records, usage)
	var od int64
	if inst.OnDemand {
		od = 1
	}
	c.trc.Emit(obs.Event{
		VT:    at,
		Kind:  obs.KindPosting,
		Inst:  inst.ID,
		Type:  inst.Type.Name,
		Label: reason.String(),
		A:     usage.GrossCost,
		B:     usage.Refunded,
		N:     od,
	})
	if usage.Refunded > 0 {
		c.trc.Emit(obs.Event{
			VT:   at,
			Kind: obs.KindRefund,
			Inst: inst.ID,
			Type: inst.Type.Name,
			A:    usage.Refunded,
		})
	}
}

// Instance returns a live instance by ID.
func (c *Cluster) Instance(id string) (*Instance, bool) {
	inst, ok := c.instances[id]
	return inst, ok
}

// RunningInstances lists instances still usable, sorted by ID.
func (c *Cluster) RunningInstances() []*Instance {
	var out []*Instance
	for _, inst := range c.instances {
		if inst.Running() {
			out = append(out, inst)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Revocation scheduling note — hold-last-price contract: spot prices are
// step functions, so a trace that ends before the campaign horizon holds its
// final price forever. A trace with no record after the launch instant above
// maxPrice therefore never revokes the instance — there is no implicit
// "trace exhausted" eviction — and billing integrates the held price over
// the remaining lifetime (AvgOver extends the last record the same way).
// market.Store.FirstExceed implements the search; holdlast_test.go pins the
// behaviour end-to-end.
