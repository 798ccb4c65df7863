package ce2d

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bdd"
	"repro/internal/fib"
	"repro/internal/hs"
	"repro/internal/topo"
)

// TestDispatcherBackfillDeterministic: two dispatchers fed the same
// multi-epoch stream must emit the same events in the same order at the
// same predicate-operation cost. A new epoch's verifier is back-filled
// from every device's queue; when that replay followed map order, both
// the event order and the operation count differed between two runs of
// one input.
func TestDispatcherBackfillDeterministic(t *testing.T) {
	const n, epochs = 12, 4
	g := topo.New()
	for i := 0; i < n; i++ {
		g.AddNode(fmt.Sprintf("s%d", i), topo.RoleSwitch, -1)
	}
	for i := 0; i < n; i++ {
		g.AddLink(topo.NodeID(i), topo.NodeID((i+1)%n))
	}
	lay := hs.NewLayout(hs.Field{Name: "dst", Bits: 8})

	// Every epoch each device replaces its four /2 rules with fresh next
	// hops, so a back-filled verifier replays a real history per device;
	// devices report in a seeded shuffled order.
	type step struct {
		dev   fib.DeviceID
		epoch Epoch
		rules [4]fib.Action
	}
	rng := rand.New(rand.NewSource(12))
	var stream []step
	for e := 1; e <= epochs; e++ {
		for _, d := range rng.Perm(n) {
			st := step{dev: fib.DeviceID(d), epoch: Epoch(fmt.Sprintf("e%d", e))}
			for k := range st.rules {
				nbrs := g.Neighbors(topo.NodeID(d))
				st.rules[k] = fib.Forward(nbrs[rng.Intn(len(nbrs))])
				if rng.Intn(4) == 0 {
					st.rules[k] = fib.Forward(topo.NodeID(n)) // deliver
				}
			}
			stream = append(stream, st)
		}
	}

	run := func() (trace []string, ops uint64) {
		space := hs.NewSpace(lay)
		disp := NewDispatcher(func(Epoch) *Verifier {
			return NewVerifier(Config{
				Topo: g, Engine: space.E, Universe: bdd.True,
				Checks: []Check{{Name: "loops", Kind: CheckLoopFree, Space: bdd.True,
					CanExit: func(topo.NodeID) bool { return true }}},
			})
		})
		installed := make(map[fib.DeviceID]bool)
		for _, st := range stream {
			var ups []fib.Update
			for k, act := range st.rules {
				id := int64(st.dev)*8 + int64(k)
				if installed[st.dev] {
					ups = append(ups, fib.Update{Op: fib.Delete, Rule: fib.Rule{ID: id, Pri: 1}})
				}
				ups = append(ups, fib.Update{Op: fib.Insert, Rule: fib.Rule{
					ID: id, Pri: 1, Action: act, Match: space.Prefix("dst", uint64(k)<<6, 2),
				}})
			}
			installed[st.dev] = true
			evs, err := disp.Receive(Msg{Device: st.dev, Epoch: st.epoch, Updates: ups})
			if err != nil {
				t.Fatal(err)
			}
			for _, te := range evs {
				trace = append(trace, fmt.Sprintf("%s %s loop=%v class=%v@%.0f",
					te.Epoch, te.Event.Check, te.Event.Loop, space.E.AnySat(te.Event.Class), space.E.SatCount(te.Event.Class)))
			}
		}
		return trace, space.E.Ops()
	}

	wantTrace, wantOps := run()
	if len(wantTrace) == 0 {
		t.Fatal("the stream produced no events; the test proves nothing")
	}
	for i := 0; i < 8; i++ {
		trace, ops := run()
		if ops != wantOps {
			t.Fatalf("run %d: %d predicate operations, first run %d", i, ops, wantOps)
		}
		if len(trace) != len(wantTrace) {
			t.Fatalf("run %d: %d events, first run %d", i, len(trace), len(wantTrace))
		}
		for k := range trace {
			if trace[k] != wantTrace[k] {
				t.Fatalf("run %d: event %d = %q, first run %q", i, k, trace[k], wantTrace[k])
			}
		}
	}
}
