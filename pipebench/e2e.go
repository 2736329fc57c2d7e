package main

import (
	"context"
	"fmt"
	"log/slog"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"streampca/internal/agg"
	"streampca/internal/ingest"
	"streampca/internal/monitor"
	"streampca/internal/noc"
	"streampca/internal/obs"
	"streampca/internal/randproj"
	"streampca/internal/sketch"
	"streampca/internal/traffic"
	"streampca/internal/transport"
)

// benchSeed is the randomness every randproj party shares. It is
// configuration, not input: the workload seed drives the trace.
const benchSeed = 2008

// waitLimit bounds the wait for one decision, alarm or start-up barrier. A
// rebuild at m = 256 takes about a second; anything near this limit is a
// lost interval.
const waitLimit = 30 * time.Second

// roundResult is one round of the service pipeline.
type roundResult struct {
	roundRecord
	setup time.Duration
	// Costs of the post-warmup intervals: wall time, process CPU time and
	// envelopes sent on every connection.
	wall, cpu time.Duration
	messages  int64
	heapBytes uint64
	attempted int
	failed    int
	// Latencies in ms from interval close: decisions that read the
	// standing model, decisions that rebuilt it, and alarm arrival at the
	// last monitor.
	quiet, refresh, alarm []float64
	// KiB sent on every connection per interval, from its hand-over until
	// its decision (and alarm) is in: quiet and rebuilding intervals.
	wireQuiet, wireRefresh []float64
	// abort is why the closed loop stopped early (nil when it did not).
	abort error
	// problems lists the checks this round failed.
	problems []string
}

// pipeline is the service composition of one round: the NOC, optional
// aggregators, the monitors and, for NetFlow, one ingest pipeline per
// monitor, linked by loopback TCP.
type pipeline struct {
	w  workload
	in *inputs

	noc   *noc.Service
	aggs  []*agg.Service
	mons  []*monitor.Service
	pipes []*ingest.Pipeline
	regs  []*obs.Registry
	// wire and sent are every service's transport byte and envelope
	// counters, sent side only, so each byte is counted once.
	wire, sent []*obs.Counter
	// covered is the NOC's flow coverage after its latest registration.
	covered atomic.Int64

	base      time.Time
	decisions chan decisionEvent

	alarmMu  sync.Mutex
	alarmAt  map[int64]*alarmState
	closeNs  []atomic.Int64 // per interval: close time since base
	sinkSeen []atomic.Int32 // per interval: monitors whose Sink received it
}

type decisionEvent struct {
	d  noc.Decision
	at time.Duration
}

type alarmState struct {
	count int
	last  time.Duration
	done  chan struct{}
}

func (p *pipeline) since() time.Duration { return time.Since(p.base) }

// registry returns a fresh registry for a service that owns connections.
func (p *pipeline) registry() *obs.Registry {
	r := obs.NewRegistry()
	p.regs = append(p.regs, r)
	return r
}

// findCounters looks up the transport counters every service registered.
func (p *pipeline) findCounters() {
	for _, r := range p.regs {
		p.wire = append(p.wire, r.Counter("streampca_transport_bytes_total", "", obs.L("direction", "sent")))
		for _, typ := range []string{"hello", "volume", "request", "response", "alarm", "error", "invalid"} {
			p.sent = append(p.sent, r.Counter("streampca_transport_messages_total", "",
				obs.L("direction", "sent"), obs.L("type", typ)))
		}
	}
}

func sum(cs []*obs.Counter) int64 {
	var n int64
	for _, c := range cs {
		n += c.Value()
	}
	return n
}

// startPipeline brings the services up and waits until every party is
// registered.
func startPipeline(w workload, in *inputs) (*pipeline, error) {
	p := &pipeline{
		w: w, in: in,
		base: time.Now(),
		// Sized to every decision of the round, so the NOC never blocks.
		decisions: make(chan decisionEvent, w.lastInterval()),
		alarmAt:   map[int64]*alarmState{},
		closeNs:   make([]atomic.Int64, w.lastInterval()+1),
		sinkSeen:  make([]atomic.Int32, w.lastInterval()+1),
	}
	ok := false
	defer func() {
		if !ok {
			p.close()
		}
	}()
	workers := nproc()
	var err error
	p.noc, err = noc.New(noc.Config{
		Detector: detectorConfig(w),
		Seed:     benchSeed,
		Workers:  workers,
		OnDecision: func(d noc.Decision) {
			p.decisions <- decisionEvent{d: d, at: p.since()}
		},
		Obs: p.registry(),
		Log: slog.New(coverageHandler{&p.covered}),
	})
	if err != nil {
		return nil, err
	}
	if err := p.noc.Serve("127.0.0.1:0"); err != nil {
		return nil, err
	}
	upstream := make([]string, w.monitors())
	for i := range upstream {
		upstream[i] = p.noc.Addr()
	}
	for k := 0; k < w.aggregators; k++ {
		a, err := agg.New(agg.Config{
			ID: fmt.Sprintf("agg-%d", k+1), Family: sketch.FamilyRandProj,
			NumFlows: w.flows(), WindowLen: w.window, SketchLen: sketchLen, Seed: benchSeed,
			Workers: workers, Obs: p.registry(),
		})
		if err != nil {
			return nil, err
		}
		p.aggs = append(p.aggs, a)
		if err := a.Serve("127.0.0.1:0"); err != nil {
			return nil, err
		}
		if err := a.ConnectNOC(p.noc.Addr(), waitLimit); err != nil {
			return nil, err
		}
	}
	for i := range upstream {
		if w.aggregators > 0 {
			upstream[i] = p.aggs[i%w.aggregators].Addr()
		}
	}
	for i, fl := range in.flows {
		mon, err := monitor.New(monitor.Config{
			ID: fmt.Sprintf("monitor-%02d", i+1), FlowIDs: fl,
			WindowLen: w.window, Epsilon: epsilon,
			Sketch:  randproj.Config{Seed: benchSeed, SketchLen: sketchLen, WindowLen: w.window},
			Workers: workers,
			OnAlarm: p.onAlarm,
			Obs:     p.registry(),
		})
		if err != nil {
			return nil, err
		}
		p.mons = append(p.mons, mon)
		if err := mon.Connect(upstream[i], waitLimit); err != nil {
			return nil, err
		}
	}
	if err := p.awaitRegistration(); err != nil {
		return nil, err
	}
	if w.netflow {
		if err := p.startIngest(); err != nil {
			return nil, err
		}
	}
	p.findCounters()
	ok = true
	return p, nil
}

// awaitRegistration is the start-up barrier. monitor.Connect returns before
// the Hello is processed, and an aggregator forwards an interval once the
// flows registered at that moment have reported
// (agg.(*Service).tryCompleteLocked). A monitor whose registration is still
// in flight would split interval 1 into two partial forwards that the NOC
// never completes. So the round starts only when every aggregator holds
// its monitors and the NOC covers every flow.
func (p *pipeline) awaitRegistration() error {
	want := make([]int, len(p.aggs))
	for i := 0; i < p.w.monitors() && len(p.aggs) > 0; i++ {
		want[i%len(p.aggs)]++
	}
	deadline := time.Now().Add(waitLimit)
	for {
		ready := true
		for k, a := range p.aggs {
			ready = ready && len(a.Monitors()) == want[k]
		}
		if len(p.aggs) == 0 {
			ready = len(p.noc.Monitors()) == p.w.monitors()
		}
		if ready && p.covered.Load() == int64(p.w.flows()) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("registration timed out: NOC covers %d of %d flows", p.covered.Load(), p.w.flows())
		}
		time.Sleep(time.Millisecond)
	}
}

// coverageHandler reads the NOC's "monitor registered" log records, which
// carry its flow coverage right after each registration. Everything else
// the NOC logs is dropped.
type coverageHandler struct{ covered *atomic.Int64 }

func (h coverageHandler) Enabled(context.Context, slog.Level) bool { return true }

func (h coverageHandler) Handle(_ context.Context, r slog.Record) error {
	if r.Message != "monitor registered" {
		return nil
	}
	r.Attrs(func(a slog.Attr) bool {
		if a.Key == "covered" {
			h.covered.Store(a.Value.Int64())
			return false
		}
		return true
	})
	return nil
}

func (h coverageHandler) WithAttrs([]slog.Attr) slog.Handler { return h }
func (h coverageHandler) WithGroup(string) slog.Handler      { return h }

// startIngest gives every monitor its own pipeline. The last monitor's
// Sink receiving interval t closes it.
func (p *pipeline) startIngest() error {
	aggr, err := traffic.NewAbileneAggregator()
	if err != nil {
		return err
	}
	last := p.w.lastInterval()
	for i, mon := range p.mons {
		flows := p.in.flows[i]
		pl, err := ingest.NewPipeline(ingest.Config{
			Aggregator: aggr,
			Interval:   300 * time.Second,
			Shards:     nproc(),
			Sink: func(iv ingest.Interval) error {
				if iv.Seq > last {
					return nil // the drain's partial seal of the trigger row
				}
				if int(p.sinkSeen[iv.Seq].Add(1)) == len(p.mons) {
					p.closeNs[iv.Seq].Store(int64(p.since()))
				}
				return mon.ReportInterval(iv.Seq, localOf(iv.Volumes, flows))
			},
		})
		if err != nil {
			return err
		}
		p.pipes = append(p.pipes, pl)
	}
	return nil
}

func (p *pipeline) onAlarm(a transport.Alarm) {
	now := p.since()
	p.alarmMu.Lock()
	defer p.alarmMu.Unlock()
	st := p.alarmLocked(a.Interval)
	st.count++
	st.last = now
	if st.count == len(p.mons) {
		close(st.done)
	}
}

func (p *pipeline) alarmLocked(t int64) *alarmState {
	st := p.alarmAt[t]
	if st == nil {
		st = &alarmState{done: make(chan struct{})}
		p.alarmAt[t] = st
	}
	return st
}

func (p *pipeline) alarmState(t int64) *alarmState {
	p.alarmMu.Lock()
	defer p.alarmMu.Unlock()
	return p.alarmLocked(t)
}

// close stops every service and waits for them.
func (p *pipeline) close() {
	for _, pl := range p.pipes {
		_ = pl.Close() // drains; the Sink drops the partial trigger row
	}
	for _, m := range p.mons {
		_ = m.Close() // teardown of a finished round; nothing is lost
	}
	for _, a := range p.aggs {
		_ = a.Close()
	}
	if p.noc != nil {
		p.noc.Shutdown()
	}
}

// hand releases interval t: for direct workloads it hands each monitor its
// volume slice; for NetFlow it hands every pipeline row t's datagrams,
// which seals interval t (row t-1).
func (p *pipeline) hand(t int64) error {
	if !p.w.netflow {
		p.closeNs[t].Store(int64(p.since()))
	}
	return forEach(len(p.mons), func(i int) error {
		if !p.w.netflow {
			return p.mons[i].ReportInterval(t, p.in.local[t-1][i])
		}
		for _, d := range p.in.datagrams[i][t] {
			if err := p.pipes[i].HandleDatagram(d); err != nil {
				return err
			}
		}
		return nil
	})
}

// await waits for interval t's decision and, when it alarms, for the alarm
// at every monitor.
func (p *pipeline) await(t int64) (decisionEvent, error) {
	var ev decisionEvent
	select {
	case ev = <-p.decisions:
	case <-time.After(waitLimit):
		return ev, fmt.Errorf("interval %d: no decision within %v", t, waitLimit)
	}
	if ev.d.Interval != t {
		return ev, fmt.Errorf("decision for interval %d while waiting for %d", ev.d.Interval, t)
	}
	if ev.d.Result.Anomalous {
		select {
		case <-p.alarmState(t).done:
		case <-time.After(waitLimit):
			return ev, fmt.Errorf("interval %d: alarm missing at some monitor after %v", t, waitLimit)
		}
	}
	return ev, nil
}

// runRound runs one full round: inputs, services, warmup, then the
// measured post-warmup intervals in a closed loop. With setupOnly it stops
// after the warmup, which measures set-up alone.
func runRound(w workload, seed int64, setupOnly bool) (roundResult, error) {
	var r roundResult
	start := time.Now()
	in, err := buildInputs(w, seed)
	if err != nil {
		return r, err
	}
	p, err := startPipeline(w, in)
	if err != nil {
		return r, fmt.Errorf("start: %w", err)
	}
	defer p.close()
	first, last := int64(w.window), w.lastInterval()
	t := int64(1)
	if w.netflow {
		if err := p.hand(0); err != nil { // row 0 opens interval 1
			return r, err
		}
	}
	for ; t < first; t++ {
		if err := p.hand(t); err != nil {
			return r, err
		}
		if _, err := p.await(t); err != nil {
			return r, fmt.Errorf("warmup: %w", err)
		}
	}
	r.setup = time.Since(start)
	if setupOnly {
		return r, nil
	}

	r.attempted = int(last - first + 1)
	msgs0, cpu0, t0 := sum(p.sent), cpuTime(), time.Now()
	for ; t <= last; t++ {
		wire0 := sum(p.wire)
		if err := p.hand(t); err != nil {
			return r, err
		}
		ev, err := p.await(t)
		if err != nil {
			// The closed loop cannot go on without this decision: every
			// interval not decided so far counts as failed.
			r.failed = int(last - t + 1)
			r.abort = err
			break
		}
		d := ev.d
		closed := time.Duration(p.closeNs[t].Load())
		lat := float64(ev.at-closed) / 1e6
		kib := float64(sum(p.wire)-wire0) / 1024
		if d.Result.Refreshed {
			r.refresh = append(r.refresh, lat)
			r.wireRefresh = append(r.wireRefresh, kib)
		} else {
			r.quiet = append(r.quiet, lat)
			r.wireQuiet = append(r.wireQuiet, kib)
		}
		if d.Result.Anomalous {
			st := p.alarmState(t)
			p.alarmMu.Lock()
			r.alarm = append(r.alarm, float64(st.last-closed)/1e6)
			p.alarmMu.Unlock()
		}
		r.decisions = append(r.decisions, decision{
			t: t, vector: d.Vector, res: d.Result, culprits: culpritsOf(d.Identified),
		})
	}
	r.wall, r.cpu = time.Since(t0), cpuTime()-cpu0
	r.messages = sum(p.sent) - msgs0
	r.alarms = map[int64]int{}
	p.alarmMu.Lock()
	for iv, st := range p.alarmAt {
		r.alarms[iv] = st.count
	}
	p.alarmMu.Unlock()
	r.problems = checkRound(w, in, r.roundRecord, r.failed == 0)
	r.heapBytes = liveHeap(in)
	return r, nil
}

// liveHeap is the live heap after a forced GC with the round's inputs
// released: the services' state (monitors' VH and sketch state, the NOC's
// model and accumulators) plus the decisions kept for the checks.
func liveHeap(in *inputs) uint64 {
	in.datagrams, in.local, in.tr = nil, nil, nil
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// cpuTime is the user+system CPU time of this process.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func nproc() int { return runtime.NumCPU() }
