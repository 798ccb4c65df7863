package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	flash "repro"
)

// probeResult is what the idle serving probe measured on an in-process
// System fed the workload's stream.
type probeResult struct {
	outcome outcome
	readSide
	recoveries []recovery
}

// readSide is what reads beside (or after) the feed measured: the idle
// probe fills one, serve-mixed's reader goroutine another.
type readSide struct {
	whatIfMs  []float64 // Snapshot → Apply → Release
	captureUs []float64 // Snapshot alone
	applyMs   []float64 // Apply alone
	ckptMs    []float64
	ckptBytes int
	liveMax   int // most snapshots unreleased at once (traced runs only)
}

func (s *readSide) addWhatIf(wt whatIfTiming) {
	s.captureUs = append(s.captureUs, float64(wt.capture.Nanoseconds())/1e3)
	s.applyMs = append(s.applyMs, ms(wt.apply))
	s.whatIfMs = append(s.whatIfMs, ms(wt.total))
	if wt.live > s.liveMax {
		s.liveMax = wt.live
	}
}

func (s *readSide) merge(o readSide) {
	s.whatIfMs = append(s.whatIfMs, o.whatIfMs...)
	s.captureUs = append(s.captureUs, o.captureUs...)
	s.applyMs = append(s.applyMs, o.applyMs...)
	s.ckptMs = append(s.ckptMs, o.ckptMs...)
	if o.ckptBytes > s.ckptBytes {
		s.ckptBytes = o.ckptBytes
	}
	if o.liveMax > s.liveMax {
		s.liveMax = o.liveMax
	}
}

func feedAll(sys *flash.System, msgs []flash.Msg, tr *tracer) ([]flash.Result, error) {
	var out []flash.Result
	ctx := context.Background()
	for i, m := range msgs {
		t0 := time.Now()
		rs, err := sys.FeedContext(ctx, m)
		if err != nil {
			return nil, fmt.Errorf("feed message %d (device %d epoch %q): %w", i, m.Device, m.Epoch, err)
		}
		if tr != nil {
			tr.add("system.feed", fmt.Sprint(i), 0, t0, time.Now())
		}
		out = append(out, rs...)
	}
	return out, nil
}

// whatIfOnce runs one what-if transaction and times its three steps.
type whatIfTiming struct {
	capture, apply, total time.Duration
	live                  int // unreleased snapshots while this one was held (traced runs only)
}

func whatIfOnce(sys *flash.System, blocks []flash.DeviceBlock, tr *tracer, id string) (whatIfTiming, error) {
	t0 := time.Now()
	snap, err := sys.Snapshot()
	if err != nil {
		return whatIfTiming{}, err
	}
	t1 := time.Now()
	_, err = snap.Apply(context.Background(), blocks)
	t2 := time.Now()
	live := 0
	if tr != nil {
		live = sys.StatsSnapshot().Snapshots
	}
	snap.Release()
	t3 := time.Now()
	if tr != nil {
		root := tr.add("whatif", id, 0, t0, t3)
		tr.add("snapshot.capture", id, root, t0, t1)
		tr.add("snapshot.apply", id, root, t1, t2)
	}
	return whatIfTiming{capture: t1.Sub(t0), apply: t2.Sub(t1), total: t3.Sub(t0), live: live}, err
}

// recovery is one restore + replay.
type recovery struct{ restore, replay time.Duration }

func (r recovery) total() time.Duration { return r.restore + r.replay }

// seconds extracts one duration from each recovery, in seconds.
func seconds(recs []recovery, part func(recovery) time.Duration) []float64 {
	out := make([]float64, len(recs))
	for i, rec := range recs {
		out[i] = part(rec).Seconds()
	}
	return out
}

func scaled(xs []float64, by float64) []float64 {
	for i := range xs {
		xs[i] *= by
	}
	return xs
}

// recoverFrom restores the newest checkpoint in dir and replays the
// stream's suffix until the model equals wantFP. cut is the number of
// messages the checkpoint covers; cut < 0 reads it from the restored
// agent stream's position (a Server.Checkpoint records the next sequence
// number it expects, and the agent numbers its messages from 1).
func recoverFrom(dir string, in *inputs, cut int, wantFP string, tr *tracer) (recovery, error) {
	t0 := time.Now()
	sys, rep, err := flash.Restore(dir, in.opts...)
	if err != nil {
		return recovery{}, fmt.Errorf("restore: %w", err)
	}
	t1 := time.Now()
	if cut < 0 {
		next, ok := rep.Streams[agentStream]
		if !ok || next < 1 || int(next-1) > len(in.probeMsgs) {
			return recovery{}, fmt.Errorf("restore: checkpoint %s: stream %q expects sequence %d of %d messages", rep.Path, agentStream, next, len(in.probeMsgs))
		}
		cut = int(next - 1)
	}
	if _, err := feedAll(sys, in.probeMsgs[cut:], nil); err != nil {
		return recovery{}, fmt.Errorf("replay from message %d: %w", cut, err)
	}
	t2 := time.Now()
	if tr != nil {
		root := tr.add("recover", "recover", 0, t0, t2)
		tr.add("ckpt.restore", "recover", root, t0, t1)
		tr.add("ckpt.replay", "recover", root, t1, t2)
	}
	fp, err := sys.ModelFingerprint(in.lastEpoch())
	if err != nil {
		return recovery{}, err
	}
	if fp != wantFP {
		return recovery{}, fmt.Errorf("recovered fingerprint %.16s differs from the live model's %.16s", fp, wantFP)
	}
	return recovery{restore: t1.Sub(t0), replay: t2.Sub(t1)}, nil
}

// probeMinSpend is how long the idle probe keeps asking what-ifs once it
// has its minimum number of samples.
const probeMinSpend = 250 * time.Millisecond

// runProbe feeds the stream to a fresh in-process System — the untimed
// reference every loopback round is compared with — and, on that idle
// system, measures the read side: checkpoints cut at probeCut of the
// stream, what-if transactions against the final model, and recovery
// from the checkpoint by restore + suffix replay.
func runProbe(in *inputs, sz sizes, dir string, tr *tracer, t *tally) (probeResult, error) {
	var p probeResult
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return p, err
	}
	defer os.RemoveAll(dir)
	sys, err := flash.NewSystem(in.opts...)
	if err != nil {
		return p, err
	}
	msgs := in.probeMsgs
	cut := int(float64(len(msgs)) * sz.probeCut)
	results, err := feedAll(sys, msgs[:cut], tr)
	if err != nil {
		return p, err
	}
	for i := 0; i < sz.probeCkpts; i++ {
		t0 := time.Now()
		info, err := sys.Checkpoint(dir)
		if err != nil {
			t.fail("checkpoint: %v", err)
			continue
		}
		t.ok(1)
		tr.add("ckpt.write", fmt.Sprint(i), 0, t0, time.Now())
		p.ckptMs = append(p.ckptMs, ms(time.Since(t0)))
		p.ckptBytes = info.Bytes
		if err := flash.PruneCheckpoints(dir, 1); err != nil {
			return p, err
		}
	}
	rest, err := feedAll(sys, msgs[cut:], tr)
	if err != nil {
		return p, err
	}
	p.outcome, err = systemOutcome(sys, in.lastEpoch(), append(results, rest...))
	if err != nil {
		return p, err
	}
	// At least probeWhatIfs transactions, and more while they are cheap: a
	// sub-millisecond what-if (storm-model) needs tens of samples for a
	// steady median, an 800 ms one (wide-fib) cannot afford them.
	started := time.Now()
	for i := 0; i < len(in.whatIf) && (i < sz.probeWhatIfs || time.Since(started) < probeMinSpend); i++ {
		wt, err := whatIfOnce(sys, in.whatIf[i], tr, fmt.Sprint(i))
		if err != nil {
			t.fail("what-if %d: %v", i, err)
			continue
		}
		t.ok(1)
		p.addWhatIf(wt)
	}
	for i := 0; i < sz.probeRecover; i++ {
		rec, err := recoverFrom(dir, in, cut, p.outcome.Fingerprint, tr)
		if err != nil {
			t.fail("recover: %v", err)
			continue
		}
		t.ok(1)
		p.recoveries = append(p.recoveries, rec)
	}
	return p, nil
}

// readerStats is what serve-mixed's reader goroutine measured.
type readerStats struct {
	readSide
	tally tally
}

// reader is serve-mixed's second goroutine: beside the feed it runs one
// what-if transaction every whatIfEvery ms and one Server.Checkpoint
// every ckptEvery ms, and cuts the recovery checkpoint when told to.
type reader struct {
	stats readerStats
	cut   chan struct{}
	quit  chan struct{}
	done  sync.WaitGroup
}

func startReader(h *harness, in *inputs, sz sizes, ckptDir, recoverDir string, tr *tracer) (*reader, error) {
	for _, dir := range []string{ckptDir, recoverDir} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	rd := &reader{cut: make(chan struct{}, 1), quit: make(chan struct{})}
	rd.done.Add(1)
	go func() {
		defer rd.done.Done()
		st := &rd.stats
		fail := st.tally.fail
		checkpoint := func(dir string, timed bool) {
			t0 := time.Now()
			info, err := h.srv.Checkpoint(dir)
			if err != nil {
				fail("serve-mixed checkpoint: %v", err)
				return
			}
			st.tally.ok(1)
			tr.add("ckpt.write", "reader", 0, t0, time.Now())
			if timed {
				st.ckptMs = append(st.ckptMs, ms(time.Since(t0)))
				st.ckptBytes = info.Bytes
			}
			if err := flash.PruneCheckpoints(dir, 2); err != nil {
				fail("serve-mixed prune: %v", err)
			}
		}
		tick := time.NewTicker(time.Duration(sz.whatIfEvery) * time.Millisecond)
		defer tick.Stop()
		perCkpt := sz.ckptEvery / sz.whatIfEvery
		for n := 1; ; n++ {
			select {
			case <-rd.quit:
				// A cut requested just before the stream ended is still
				// honoured: recovery then replays an empty suffix.
				select {
				case <-rd.cut:
					checkpoint(recoverDir, false)
				default:
				}
				return
			case <-rd.cut:
				checkpoint(recoverDir, false)
				continue
			case <-tick.C:
			}
			wt, err := whatIfOnce(h.sys, in.whatIf[n%len(in.whatIf)], tr, fmt.Sprint("r", n))
			switch {
			case errors.Is(err, flash.ErrNoEpoch): // nothing fed yet
			case err != nil:
				fail("serve-mixed what-if: %v", err)
			default:
				st.tally.ok(1)
				st.addWhatIf(wt)
			}
			if n%perCkpt == 0 {
				checkpoint(ckptDir, true)
			}
		}
	}()
	return rd, nil
}

// cutNow asks the reader to write the recovery checkpoint.
func (rd *reader) cutNow() {
	select {
	case rd.cut <- struct{}{}:
	default:
	}
}

// stop ends the reader and waits for it; stats are safe to read after.
func (rd *reader) stop() {
	close(rd.quit)
	rd.done.Wait()
}
