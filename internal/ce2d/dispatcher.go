package ce2d

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/fib"
	"repro/internal/obs"
	"repro/internal/pred"
)

// ErrBadEpoch reports an epoch-ordering violation: a device kept sending
// updates for an epoch after declaring itself synchronized with it.
// Callers detect it with errors.Is; the flash package re-exports it as
// flash.ErrBadEpoch.
var ErrBadEpoch = errors.New("epoch ordering violated")

// Msg is one epoch-tagged FIB update message from a device agent.
// Delivery between one agent and the dispatcher is serialized (in-order),
// as §4.1 requires; there is no ordering constraint across devices.
type Msg struct {
	Device  fib.DeviceID
	Epoch   Epoch
	Updates []fib.Update
}

// TaggedEvent is a deterministic early-detection result together with the
// epoch it is consistent with.
type TaggedEvent struct {
	Epoch Epoch
	Event Event
}

// DispatcherStats counts verifier lifecycle activity.
type DispatcherStats struct {
	Messages         int
	VerifiersCreated int
	VerifiersStopped int
}

// Dispatcher implements the CE2D dispatcher of Figure 1: it tracks epoch
// activity, manages the life cycle of per-epoch verifiers, and routes
// device update queues to them (§4.1, "Dispatching Consistent FIB
// Updates"). It is single-goroutine; the wire server serializes into it.
type Dispatcher struct {
	tracker *Tracker
	factory func(Epoch) *Verifier

	queues    map[fib.DeviceID][]Msg
	verifiers map[Epoch]*Verifier
	fed       map[Epoch]map[fib.DeviceID]int // per-verifier consumed queue prefix
	stats     DispatcherStats

	m      dmetrics
	born   map[Epoch]time.Time // verifier creation times (instrumented only)
	queued int                 // total queued messages across devices

	// fcAbandoned tracks, per device, epochs the device has moved past.
	// Populated only by flashcheck builds (flashcheck_on.go); stays nil
	// otherwise.
	fcAbandoned map[fib.DeviceID]map[Epoch]bool
}

// dmetrics holds resolved observability handles; the zero value is the
// uninstrumented no-op state (all calls are nil-receiver no-ops).
type dmetrics struct {
	messages        *obs.Counter   // agent messages received
	events          *obs.Counter   // deterministic detection results emitted
	created         *obs.Counter   // verifiers created
	stopped         *obs.Counter   // verifiers stopped (epoch superseded)
	verifiersLive   *obs.Gauge     // currently live per-epoch verifiers
	queueDepth      *obs.Gauge     // retained messages across device queues
	devicesSynced   *obs.Gauge     // synchronized devices of the last-fed verifier
	stragglerWaitNs *obs.Histogram // verifier creation → device sync delay
}

// Instrument attaches the dispatcher to an observability registry. The
// straggler_wait_ns histogram is the paper's long-tail story (Figure 9):
// it records, for each device that synchronizes with an epoch, how long
// the epoch's verifier had been waiting for it — CE2D reports results
// without waiting for that tail, and the histogram shows how long the
// tail actually is. Instrument(nil) is a no-op.
func (d *Dispatcher) Instrument(r *obs.Registry) {
	if r == nil {
		return
	}
	d.m = dmetrics{
		messages:        r.Counter("messages"),
		events:          r.Counter("events"),
		created:         r.Counter("verifiers_created"),
		stopped:         r.Counter("verifiers_stopped"),
		verifiersLive:   r.Gauge("verifiers_live"),
		queueDepth:      r.Gauge("queue_depth"),
		devicesSynced:   r.Gauge("devices_synced"),
		stragglerWaitNs: r.Histogram("straggler_wait_ns"),
	}
	d.born = make(map[Epoch]time.Time)
}

// NewDispatcher creates a dispatcher; factory builds a fresh verifier for
// an epoch when it first becomes active.
func NewDispatcher(factory func(Epoch) *Verifier) *Dispatcher {
	return &Dispatcher{
		tracker:   NewTracker(),
		factory:   factory,
		queues:    make(map[fib.DeviceID][]Msg),
		verifiers: make(map[Epoch]*Verifier),
		fed:       make(map[Epoch]map[fib.DeviceID]int),
	}
}

// Tracker exposes the epoch tracker (read-only use).
func (d *Dispatcher) Tracker() *Tracker { return d.tracker }

// Stats returns lifecycle counters.
func (d *Dispatcher) Stats() DispatcherStats { return d.stats }

// Verifier returns the live verifier for an epoch, if any.
func (d *Dispatcher) Verifier(e Epoch) (*Verifier, bool) {
	v, ok := d.verifiers[e]
	return v, ok
}

// Current returns the most-converged live verifier — the one serving
// plane snapshots fork from. Among active epochs with a live verifier it
// picks the one with the most synchronized devices, breaking ties toward
// the lexicographically larger (typically newer) epoch tag.
func (d *Dispatcher) Current() (Epoch, *Verifier, bool) {
	var (
		bestEpoch Epoch
		best      *Verifier
		found     bool
	)
	for _, e := range d.tracker.ActiveEpochs() {
		v, ok := d.verifiers[e]
		if !ok {
			continue
		}
		if !found ||
			v.SynchronizedCount() > best.SynchronizedCount() ||
			(v.SynchronizedCount() == best.SynchronizedCount() && e > bestEpoch) {
			bestEpoch, best, found = e, v, true
		}
	}
	return bestEpoch, best, found
}

// EachVerifier visits every live verifier in sorted epoch order.
func (d *Dispatcher) EachVerifier(f func(Epoch, *Verifier)) {
	epochs := make([]Epoch, 0, len(d.verifiers))
	for e := range d.verifiers {
		epochs = append(epochs, e)
	}
	sort.Slice(epochs, func(i, j int) bool { return epochs[i] < epochs[j] })
	for _, e := range epochs {
		f(e, d.verifiers[e])
	}
}

// Rebind points every live verifier at a different predicate engine
// (see Verifier.Rebind). Queued message refs are rewritten separately
// through Dispatcher.RemapRefs; the two calls together complete a
// hybrid cutover for the dispatcher's state.
func (d *Dispatcher) Rebind(e pred.Engine) {
	for _, v := range d.verifiers {
		v.Rebind(e)
	}
}

// Receive processes one message: queue it, update epoch activity, stop
// superseded verifiers, and feed the active verifier. It returns any new
// deterministic detection results.
func (d *Dispatcher) Receive(m Msg) ([]TaggedEvent, error) {
	d.stats.Messages++
	d.m.messages.Inc()
	d.queues[m.Device] = append(d.queues[m.Device], m)
	d.queued++
	d.m.queueDepth.Set(int64(d.queued))

	d.checkEpochMonotonic(m.Device, m.Epoch)
	isActive, deactivated := d.tracker.Observe(m.Device, m.Epoch)
	for _, e := range deactivated {
		if _, ok := d.verifiers[e]; ok {
			delete(d.verifiers, e)
			delete(d.fed, e)
			d.stats.VerifiersStopped++
			d.m.stopped.Inc()
			d.m.verifiersLive.Add(-1)
			delete(d.born, e)
		}
	}
	if !isActive {
		// A newer epoch from this device already exists elsewhere; the
		// updates stay queued for future verifiers' snapshots.
		return nil, nil
	}
	v, events, err := d.ensureVerifier(m.Epoch)
	if err != nil {
		return nil, err
	}
	more, err := d.feedDevice(m.Epoch, v, m.Device)
	if err != nil {
		return nil, err
	}
	events = append(events, more...)
	d.m.events.Add(int64(len(events)))
	return events, nil
}

// ensureVerifier creates (and back-fills) the verifier for an active
// epoch: every device's queued update history is replayed so the verifier
// holds the freshest known FIB snapshot, and devices whose latest epoch
// matches are marked synchronized. Detection results produced during the
// back-fill are returned.
func (d *Dispatcher) ensureVerifier(e Epoch) (*Verifier, []TaggedEvent, error) {
	if v, ok := d.verifiers[e]; ok {
		return v, nil, nil
	}
	v := d.factory(e)
	d.verifiers[e] = v
	d.fed[e] = make(map[fib.DeviceID]int)
	d.stats.VerifiersCreated++
	d.m.created.Inc()
	d.m.verifiersLive.Add(1)
	if d.born != nil {
		d.born[e] = time.Now()
	}
	// Back-fill in device order, not map order: the order decides the
	// order of the emitted events and how many predicate operations the
	// replay costs, and both must repeat from run to run.
	devs := make([]fib.DeviceID, 0, len(d.queues))
	for dev := range d.queues {
		devs = append(devs, dev)
	}
	slices.Sort(devs)
	var events []TaggedEvent
	for _, dev := range devs {
		evs, err := d.feedDevice(e, v, dev)
		if err != nil {
			return nil, nil, err
		}
		events = append(events, evs...)
	}
	return v, events, nil
}

// feedDevice replays the device's unconsumed queue prefix into the
// verifier and synchronizes the device if its latest epoch matches.
func (d *Dispatcher) feedDevice(e Epoch, v *Verifier, dev fib.DeviceID) ([]TaggedEvent, error) {
	q := d.queues[dev]
	start := d.fed[e][dev]
	if start >= len(q) {
		return nil, nil
	}
	if v.synced[dev] {
		return nil, fmt.Errorf("ce2d: device %d sent more updates after synchronizing epoch %s: %w", dev, e, ErrBadEpoch)
	}
	for _, m := range q[start:] {
		if err := v.ApplyUpdates(dev, m.Updates); err != nil {
			return nil, err
		}
	}
	d.fed[e][dev] = len(q)
	last, _ := d.tracker.Last(dev)
	if last != e {
		return nil, nil
	}
	events, err := v.MarkSynchronized(dev)
	if err != nil {
		return nil, err
	}
	if d.born != nil {
		if t0, ok := d.born[e]; ok {
			d.m.stragglerWaitNs.Observe(time.Since(t0))
		}
		d.m.devicesSynced.Set(int64(v.SynchronizedCount()))
	}
	out := make([]TaggedEvent, 0, len(events))
	for _, ev := range events {
		out = append(out, TaggedEvent{Epoch: e, Event: ev})
	}
	return out, nil
}
