package main

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"streampca/internal/core"
	"streampca/internal/ingest"
	"streampca/internal/mat"
	"streampca/internal/randproj"
	"streampca/internal/sketch"
	"streampca/internal/trace"
	"streampca/internal/traffic"
)

// Span names of the traced composition, recorded by the benchmark's own
// code around its calls into each layer. Root spans follow one another
// within an interval; the hand-over phases run on nproc goroutines as in
// the service pipeline, so their root spans give the phase's wall time.
const (
	spanHandle   = "ingest.handle"    // root: HandleDatagram calls of every pipeline
	spanSealWait = "ingest.seal_wait" // root: end of the hand-over until every Sink fired
	spanMonitors = "monitor.phase"    // root: every monitor's update
	spanUpdate   = "monitor.update"   // core.Monitor.Update of one monitor
	spanObserve  = "core.observe"     // root: Detector.Observe
	spanFetch    = "noc.fetch"        // the FetchFunc handed to Observe
	spanSnapshot = "monitor.snapshot" // core.Monitor.Report
	spanMerge    = "agg.merge"        // sketch.Merge of one aggregator shard
	spanIdentify = "anomography.identify"
	spanGram     = "mat.gram"  // root: GramWorkers on the rebuild's sketch matrix
	spanEigen    = "mat.eigen" // root: SymEigenWorkers on the same Gram matrix

	// attrRebuilt marks an observe span whose call rebuilt the model.
	attrRebuilt = "rebuilt"
)

// inprocResult is a run of the in-process composition.
type inprocResult struct {
	decisions []decision
	// spans is the recorded trace (nil when untraced).
	spans []trace.Record
	// Host-independent counts over the post-warmup intervals, except
	// vhBuckets, the monitors' bucket total at the end.
	refreshes, alarms  int
	datagrams, records int64
	vhBuckets          int
}

// runInProc composes the layers in process through their exported
// functions: ingest pipelines (netflow), core monitors, per-shard
// sketch.Merge (when federated is set) and the detector. Inputs are handed
// over from nproc goroutines, as in the service pipeline; the NOC side runs
// on the calling goroutine. With traced set it records a span around every
// call. It decides exactly as the service pipeline does on the same inputs.
func runInProc(w workload, in *inputs, traced, federated bool) (inprocResult, error) {
	var res inprocResult
	var tr *trace.Tracer
	if traced {
		// Size the ring to the whole run (at most 2 spans per monitor, one
		// per shard and 8 more per interval): spans are read once at the end.
		perInterval := 3*w.monitors() + w.aggregators + 16
		tr = trace.New(trace.Config{Component: "pipebench", Capacity: perInterval * w.intervals})
	}
	workers := nproc()
	gen, err := randproj.NewGenerator(randproj.Config{Seed: benchSeed, SketchLen: sketchLen, WindowLen: w.window})
	if err != nil {
		return res, err
	}
	mons := make([]*core.Monitor, len(in.flows))
	for i, fl := range in.flows {
		if mons[i], err = core.NewMonitor(core.MonitorConfig{
			FlowIDs: fl, WindowLen: w.window, Epsilon: epsilon, Gen: gen, Workers: workers,
		}); err != nil {
			return res, err
		}
	}
	det, err := core.NewDetector(detectorConfig(w))
	if err != nil {
		return res, err
	}
	var shards [][]int
	if federated {
		shards = shardMonitors(w)
	}

	var feed *inprocIngest
	if w.netflow {
		if feed, err = newInprocIngest(in); err != nil {
			return res, err
		}
		defer feed.close()
		if err := feed.hand(0, nil, 0); err != nil {
			return res, err
		}
	}

	m := w.flows()
	var lastFetch core.Fetch
	var warmDatagrams, warmRecords int64 // ingest counts before the first measured interval
	for t := int64(1); t <= w.lastInterval(); t++ {
		id := trace.ForInterval(t)
		post := t >= int64(w.window)
		var locals [][]float64
		if feed != nil && t == int64(w.window) {
			warmDatagrams, warmRecords = feed.counts()
		}
		if feed != nil {
			if locals, err = feed.next(t, tr, id); err != nil {
				return res, err
			}
		} else {
			locals = in.local[t-1]
		}
		psp := tr.Start(id, 0, spanMonitors)
		err := forEach(len(mons), func(i int) error {
			sp := tr.Start(id, psp.ID(), spanUpdate)
			defer sp.End()
			return mons[i].Update(t, locals[i])
		})
		psp.End()
		if err != nil {
			return res, fmt.Errorf("interval %d: %w", t, err)
		}
		if !post {
			continue // the NOC only absorbs warmup intervals
		}
		x := in.vectors[t-1]
		osp := tr.Start(id, 0, spanObserve)
		fetch := func() (core.Fetch, error) {
			fsp := tr.Start(id, osp.ID(), spanFetch)
			defer fsp.End()
			snaps := make([]sketch.Snapshot, len(mons))
			for i, mon := range mons {
				sp := tr.Start(id, fsp.ID(), spanSnapshot)
				snaps[i] = mon.Report()
				sp.End()
			}
			if shards != nil {
				merged := make([]sketch.Snapshot, len(shards))
				for s, members := range shards {
					shard := make([]sketch.Snapshot, len(members))
					for k, i := range members {
						shard[k] = snaps[i]
					}
					sp := tr.Start(id, fsp.ID(), spanMerge)
					var err error
					merged[s], err = sketch.Merge(shard, sketchLen, workers)
					sp.End()
					if err != nil {
						return core.Fetch{}, err
					}
				}
				snaps = merged
			}
			f, err := assembleFetch(snaps, m)
			lastFetch = f
			return f, err
		}
		dec, err := det.Observe(x, fetch)
		osp.SetAttr(trace.B(attrRebuilt, dec.Refreshed))
		osp.End()
		if err != nil {
			return res, fmt.Errorf("observe interval %d: %w", t, err)
		}
		d := decision{t: t, vector: x, res: dec}
		if dec.Refreshed {
			res.refreshes++
			if tr != nil && res.refreshes <= kernelRebuilds {
				if err := timeKernels(tr, id, lastFetch, workers); err != nil {
					return res, err
				}
			}
		}
		if dec.Anomalous {
			res.alarms++
			sp := tr.Start(id, 0, spanIdentify)
			ident, err := det.Identify(x, 0)
			sp.End()
			if err != nil {
				return res, fmt.Errorf("identify interval %d: %w", t, err)
			}
			d.culprits = culpritsOf(ident)
		}
		res.decisions = append(res.decisions, d)
	}
	for _, mon := range mons {
		res.vhBuckets += mon.NumBucketsTotal()
	}
	if feed != nil {
		d, r := feed.counts()
		res.datagrams, res.records = d-warmDatagrams, r-warmRecords
	}
	if tr != nil {
		res.spans, _ = tr.Recorder().Snapshot(0)
	}
	return res, nil
}

// kernelRebuilds bounds the rebuilds whose kernels timeKernels re-runs: at
// m = 256 each re-run costs a second.
const kernelRebuilds = 8

// timeKernels re-runs the rebuild's two kernels on the fetched sketches to
// split core.rebuild's time between them. They run outside every span of
// the budget, so the split never counts twice.
func timeKernels(tr *trace.Tracer, id trace.ID, f core.Fetch, workers int) error {
	z, err := core.AssembleSketchMatrix(f.Sketches, sketchLen)
	if err != nil {
		return err
	}
	sp := tr.Start(id, 0, spanGram)
	g := z.GramWorkers(workers)
	sp.End()
	sp = tr.Start(id, 0, spanEigen)
	_, err = mat.SymEigenWorkers(g, workers)
	sp.End()
	return err
}

// assembleFetch indexes snapshots by global flow id, as the NOC does with
// the responses of a sketch pull.
func assembleFetch(snaps []sketch.Snapshot, m int) (core.Fetch, error) {
	f := core.Fetch{Sketches: make([][]float64, m), Means: make([]float64, m)}
	for _, s := range snaps {
		if err := s.Validate(sketchLen); err != nil {
			return core.Fetch{}, err
		}
		for k, id := range s.FlowIDs {
			f.Sketches[id] = s.Sketches[k]
			f.Means[id] = s.Means[k]
		}
		if s.Interval > f.Interval {
			f.Interval = s.Interval
		}
	}
	for j, s := range f.Sketches {
		if s == nil {
			return core.Fetch{}, fmt.Errorf("no snapshot covers flow %d", j)
		}
	}
	return f, nil
}

// shardMonitors lists each aggregator's monitor indices (i mod aggregators).
func shardMonitors(w workload) [][]int {
	out := make([][]int, w.aggregators)
	for i := 0; i < w.monitors(); i++ {
		out[i%w.aggregators] = append(out[i%w.aggregators], i)
	}
	return out
}

func detectorConfig(w workload) core.DetectorConfig {
	return core.DetectorConfig{
		Family:    sketch.FamilyRandProj,
		Builder:   core.BuildJacobi,
		NumFlows:  w.flows(),
		WindowLen: w.window,
		SketchLen: sketchLen,
		Alpha:     alpha,
		Mode:      core.RankFixed,
		FixedRank: rank,
		Workers:   nproc(),
	}
}

// inprocIngest runs one ingest pipeline per monitor whose Sink hands
// sealed intervals back to the driving goroutine.
type inprocIngest struct {
	in     *inputs
	pipes  []*ingest.Pipeline
	sealed chan sealedInterval
}

type sealedInterval struct {
	mon int
	iv  ingest.Interval
}

func newInprocIngest(in *inputs) (*inprocIngest, error) {
	agg, err := traffic.NewAbileneAggregator()
	if err != nil {
		return nil, err
	}
	// One sealed interval per pipeline is in flight at a time.
	f := &inprocIngest{in: in, sealed: make(chan sealedInterval, len(in.flows))}
	for i := range in.flows {
		p, err := ingest.NewPipeline(ingest.Config{
			Aggregator: agg,
			Interval:   300 * time.Second,
			Shards:     nproc(),
			Sink: func(iv ingest.Interval) error {
				f.sealed <- sealedInterval{mon: i, iv: iv}
				return nil
			},
		})
		if err != nil {
			f.close()
			return nil, err
		}
		f.pipes = append(f.pipes, p)
	}
	return f, nil
}

// hand gives every pipeline its datagrams of one trace row.
func (f *inprocIngest) hand(row int, tr *trace.Tracer, id trace.ID) error {
	sp := tr.Start(id, 0, spanHandle)
	defer sp.End()
	return forEach(len(f.pipes), func(i int) error {
		for _, d := range f.in.datagrams[i][row] {
			if err := f.pipes[i].HandleDatagram(d); err != nil {
				return err
			}
		}
		return nil
	})
}

// next hands over row t, which seals interval t (row t-1), and returns each
// monitor's slice of it.
func (f *inprocIngest) next(t int64, tr *trace.Tracer, id trace.ID) ([][]float64, error) {
	if err := f.hand(int(t), tr, id); err != nil {
		return nil, err
	}
	sp := tr.Start(id, 0, spanSealWait)
	defer sp.End()
	locals := make([][]float64, len(f.pipes))
	for range f.pipes {
		s := <-f.sealed
		if s.iv.Seq != t {
			return nil, fmt.Errorf("pipeline %d sealed interval %d, want %d", s.mon, s.iv.Seq, t)
		}
		locals[s.mon] = localOf(s.iv.Volumes, f.in.flows[s.mon])
	}
	return locals, nil
}

func (f *inprocIngest) counts() (datagrams, records int64) {
	for _, p := range f.pipes {
		datagrams += p.Metrics().Datagrams.Value()
		records += p.Metrics().Records.Value()
	}
	return datagrams, records
}

// close drains the pipelines; the final partial seal is discarded.
func (f *inprocIngest) close() {
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for range f.sealed {
		}
	}()
	for _, p := range f.pipes {
		_ = p.Close() // drain only; nothing reads the partial interval
	}
	close(f.sealed)
	<-drained
}

// forEach runs fn(0..n-1) on nproc goroutines, item i on goroutine i mod
// nproc, the way the benchmark hands inputs to the monitors.
func forEach(n int, fn func(i int) error) error {
	workers := nproc()
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < n; i += workers {
				if err := fn(i); err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	return errors.Join(errs...)
}
