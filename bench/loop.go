package main

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"strconv"
	"sync"
	"time"

	flash "repro"
	"repro/internal/wire"
)

// harness is one flash.Server on a loopback TCP listener with one agent
// connection: every device of the workload multiplexes on the single
// wire.Client, as one collector-side agent would. Traffic crosses the
// host's loopback interface, not a real link.
type harness struct {
	sys  *flash.System
	srv  *flash.Server
	cli  *wire.Client
	done chan error // Serve's return
	tr   *tracer

	mu      sync.Mutex
	results []flash.Result // as the agent received them
	gotAt   []time.Time    // agent-side receipt time per result (traced only)
	pushAt  []time.Time    // server-side OnResult time per result (traced only)
}

const agentStream = "bench"

// runTimeout bounds any single wait on the server; the driver allows a
// run 180 s in total.
const runTimeout = 120 * time.Second

func startHarness(opts []flash.Option, tr *tracer) (*harness, error) {
	sys, err := flash.NewSystem(opts...)
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := &harness{sys: sys, done: make(chan error, 1), tr: tr}
	var onResult func(flash.Result)
	if tr != nil {
		onResult = func(flash.Result) {
			now := time.Now()
			h.mu.Lock()
			h.pushAt = append(h.pushAt, now)
			h.mu.Unlock()
		}
	}
	h.srv = flash.NewServer(l, sys, onResult)
	go func() { h.done <- h.srv.Serve() }()
	h.cli, err = wire.NewClient(l.Addr().String(), wire.ClientOptions{
		Stream: agentStream,
		OnResult: func(ev wire.ResultEvent) {
			h.mu.Lock()
			h.results = append(h.results, flash.ResultFromWire(ev))
			if tr != nil {
				h.gotAt = append(h.gotAt, time.Now())
			}
			h.mu.Unlock()
		},
	})
	if err != nil {
		h.srv.Close()
		<-h.done
		return nil, err
	}
	return h, nil
}

// close stops the agent and the server and waits for Serve to return.
func (h *harness) close() error {
	h.cli.Close()
	err := h.srv.Close()
	if serr := <-h.done; err == nil {
		err = serr
	}
	return err
}

func (h *harness) takeResults() []flash.Result {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.results
}

// saturate is the closed-loop capacity measurement: send the whole stream
// back to back on the one connection, then wait for the last ack.
func (h *harness) saturate(msgs []flash.Msg) error {
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	for _, m := range msgs {
		if err := h.cli.Send(m); err != nil {
			return fmt.Errorf("send: %w", err)
		}
	}
	return h.cli.WaitAcked(ctx)
}

// stepwise is the closed loop with one message outstanding: send, wait
// for every result and the ack, send the next. It returns each message's
// send→ack latency.
func (h *harness) stepwise(msgs []flash.Msg) ([]time.Duration, error) {
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	lat := make([]time.Duration, 0, len(msgs))
	for i, m := range msgs {
		t0 := time.Now()
		if err := h.cli.Send(m); err != nil {
			return nil, fmt.Errorf("send: %w", err)
		}
		t1 := time.Now()
		if err := h.cli.WaitAcked(ctx); err != nil {
			return nil, err
		}
		t2 := time.Now()
		lat = append(lat, t2.Sub(t0))
		if h.tr != nil {
			id := strconv.Itoa(i)
			root := h.tr.add("msg", id, 0, t0, t2)
			h.tr.add("wire.send", id, root, t0, t1)
			h.tr.add("ack.wait", id, root, t1, t2)
		}
	}
	h.resultSpans()
	return lat, nil
}

// waitUntil returns at t, not after it. Timers in the sandbox this
// benchmark was written on tick at about a millisecond (a 50 µs sleep
// takes 1.09 ms), so the generator sleeps only while the deadline is
// further away than that and yields in a loop for the rest.
func waitUntil(t time.Time) {
	const timerSlack = 2500 * time.Microsecond
	for {
		d := time.Until(t)
		switch {
		case d <= 0:
			return
		case d > timerSlack:
			time.Sleep(d - timerSlack)
		default:
			runtime.Gosched()
		}
	}
}

// pacedResult is what one open-loop pass measured.
type pacedResult struct {
	latency []time.Duration // due → every result and the ack received
	lagMax  time.Duration   // latest the generator started a send once it was both due and possible
}

// paced is the open loop on one connection: message i is due at
// start + i/rate whatever happened to earlier messages, and its latency
// runs from that due time, so a stall is charged to every message it
// delays. The one agent connection carries one message at a time (send,
// then wait for every result and the ack), as constant-rate load
// generators with a fixed connection count do; a message whose due time
// passes while its predecessor is still unanswered goes out the moment
// the ack arrives. The generator's own lateness — send start minus the
// later of due time and previous ack — is reported as lag.
func (h *harness) paced(msgs []flash.Msg, rate float64, onSent func(i int)) (pacedResult, error) {
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	interval := time.Duration(float64(time.Second) / rate)
	res := pacedResult{latency: make([]time.Duration, 0, len(msgs))}
	start := time.Now().Add(2 * time.Millisecond)
	free := start // when the connection last became free
	for i, m := range msgs {
		due := start.Add(time.Duration(i) * interval)
		waitUntil(due)
		t0 := time.Now()
		if err := h.cli.Send(m); err != nil {
			return res, fmt.Errorf("send: %w", err)
		}
		t1 := time.Now()
		if onSent != nil {
			onSent(i)
		}
		if err := h.cli.WaitAcked(ctx); err != nil {
			return res, err
		}
		t2 := time.Now()
		res.latency = append(res.latency, t2.Sub(due))
		possible := due
		if free.After(due) {
			possible = free
		}
		if lag := t0.Sub(possible); lag > res.lagMax {
			res.lagMax = lag
		}
		free = t2
		if h.tr != nil {
			id := strconv.Itoa(i)
			root := h.tr.add("msg", id, 0, due, t2)
			h.tr.add("conn.wait", id, root, due, possible)
			h.tr.add("gen.wait", id, root, possible, t0)
			h.tr.add("wire.send", id, root, t0, t1)
			h.tr.add("ack.wait", id, root, t1, t2)
		}
	}
	h.resultSpans()
	return res, nil
}

// resultSpans records one serve.results span per pushed result: from the
// server's OnResult callback to the agent's OnResult callback. Results of
// a message reach the agent before its ack, so the span's parent is the
// ack.wait whose interval contains the receipt.
func (h *harness) resultSpans() {
	if h.tr == nil {
		return
	}
	h.mu.Lock()
	pushAt, gotAt := h.pushAt, h.gotAt
	h.mu.Unlock()
	h.tr.mu.Lock()
	var waits []span
	for _, s := range h.tr.spans {
		if s.Name == "ack.wait" {
			waits = append(waits, s)
		}
	}
	t0 := h.tr.t0
	h.tr.mu.Unlock()
	w := 0
	for i := 0; i < len(pushAt) && i < len(gotAt); i++ {
		got := gotAt[i].Sub(t0).Nanoseconds()
		for w < len(waits)-1 && waits[w].EndNs < got {
			w++
		}
		parent, trace := uint64(0), "results"
		if w < len(waits) {
			parent, trace = waits[w].ID, waits[w].Trace
		}
		h.tr.add("serve.results", trace, parent, pushAt[i], gotAt[i])
	}
	h.tr.count("serve.results", int64(len(gotAt)))
}
