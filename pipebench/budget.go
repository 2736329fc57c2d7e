package main

import (
	"fmt"
	"io"
	"time"

	"streampca/internal/trace"
)

// Budget rows. With the transport.fanin remainder they add up to the
// service pipeline's wall time per interval. Each is a root span's
// duration per interval, except inside the observe span, which is split
// into self times: noc.fetch less the snapshots and merges it waited for,
// and the observe span's own rest by path, core.distance when it read the
// standing model and core.rebuild when it rebuilt it.
const (
	rowDistance = "core.distance"
	rowRebuild  = "core.rebuild"
	rowFanin    = "transport.fanin"
)

var budgetRows = []string{spanHandle, spanSealWait, spanUpdate, spanSnapshot, spanMerge, spanFetch, rowDistance, rowRebuild, spanIdentify}

// budget is one traced pair: a service-pipeline round and the traced
// in-process run of the same trace.
type budget struct {
	e2eMs float64 // service pipeline wall time per interval
	// rowMs is each budget row per interval.
	rowMs map[string]float64
	// callMs is each layer's mean per call: per monitor for
	// monitor.update and monitor.snapshot, per shard for agg.merge, and
	// per interval for the ingest phases. noc.fetch is its whole span.
	callMs map[string]float64
	// Host-independent counts: per run, or per interval where named so.
	refreshes, alarms, vhBuckets float64
	messages, datagrams, records float64 // per interval
}

func reduce(w workload, r roundResult, ir inprocResult) budget {
	ids := postWarmup(w)
	children := map[trace.SpanID]time.Duration{}
	for _, s := range ir.spans {
		if s.Parent != 0 {
			children[s.Parent] += s.Duration
		}
	}
	rows := map[string]time.Duration{}
	whole := map[string]time.Duration{}
	calls := map[string]int{}
	for _, s := range ir.spans {
		if !ids[s.Trace] {
			continue
		}
		name, d := s.Name, s.Duration
		switch name {
		case spanMonitors:
			rows[spanUpdate] += d // the phase's wall time
			continue
		case spanObserve:
			name = rowDistance
			if rebuilt(s) {
				name = rowRebuild
			}
			d -= children[s.Span]
		case spanFetch:
			d -= children[s.Span]
		}
		if name != spanUpdate {
			rows[name] += d
		}
		whole[name] += s.Duration
		calls[name]++
	}
	n := float64(len(ir.decisions))
	b := budget{
		e2eMs:     r.wall.Seconds() * 1e3 / float64(len(r.decisions)),
		rowMs:     map[string]float64{},
		callMs:    map[string]float64{},
		refreshes: float64(ir.refreshes),
		alarms:    float64(ir.alarms),
		vhBuckets: float64(ir.vhBuckets),
		messages:  float64(r.messages) / float64(len(r.decisions)),
		datagrams: float64(ir.datagrams) / n,
		records:   float64(ir.records) / n,
	}
	for row, d := range rows {
		b.rowMs[row] = d.Seconds() * 1e3 / n
	}
	for name, d := range whole {
		per := d
		switch name {
		case rowDistance, rowRebuild:
			per = rows[name] // self time
		}
		b.callMs[name] = per.Seconds() * 1e3 / float64(calls[name])
	}
	return b
}

func rebuilt(s trace.Record) bool {
	for _, a := range s.Attrs {
		if a.Key == attrRebuilt {
			return a.Value == true
		}
	}
	return false
}

// postWarmup is the set of trace IDs of measured intervals.
func postWarmup(w workload) map[trace.ID]bool {
	ids := map[trace.ID]bool{}
	for t := int64(w.window); t <= w.lastInterval(); t++ {
		ids[trace.ForInterval(t)] = true
	}
	return ids
}

// meanBudget averages the pairs of a run.
func meanBudget(bs []budget) budget {
	m := budget{rowMs: map[string]float64{}, callMs: map[string]float64{}}
	k := float64(len(bs))
	for _, b := range bs {
		m.e2eMs += b.e2eMs / k
		for row, v := range b.rowMs {
			m.rowMs[row] += v / k
		}
		for row, v := range b.callMs {
			m.callMs[row] += v / k
		}
		m.refreshes += b.refreshes / k
		m.alarms += b.alarms / k
		m.vhBuckets += b.vhBuckets / k
		m.messages += b.messages / k
		m.datagrams += b.datagrams / k
		m.records += b.records / k
	}
	return m
}

// fanin is the remainder: loopback transport, service fan-in, the
// concurrency the service pipeline has and the serial composition lacks,
// and span overhead.
func (b budget) fanin() float64 {
	rest := b.e2eMs
	for _, row := range budgetRows {
		rest -= b.rowMs[row]
	}
	return rest
}

func (b budget) print(w workload, out io.Writer) {
	fmt.Fprintf(out, "budget per interval, %s: service pipeline wall %.4f ms per interval\n", w.name, b.e2eMs)
	fmt.Fprintf(out, "  %-22s %10s %7s\n", "layer", "ms", "share")
	for _, row := range append(budgetRows, rowFanin) {
		v := b.rowMs[row]
		if row == rowFanin {
			v = b.fanin()
		}
		fmt.Fprintf(out, "  %-22s %10.4f %6.1f%%\n", row, v, 100*v/b.e2eMs)
	}
	fmt.Fprintf(out, "  %-22s %10.4f\n", "sum", b.e2eMs)
	fmt.Fprintf(out, "  core.rebuild split (not added, inside core.rebuild): mat.gram %.3f ms, mat.eigen %.3f ms per rebuild\n",
		b.callMs[spanGram], b.callMs[spanEigen])
	fmt.Fprintf(out, "  ingest.handle_ms %.4f and ingest.seal_wait_ms %.4f per interval, agg.merge_ms %.4f per shard per fetch\n",
		b.callMs[spanHandle], b.callMs[spanSealWait], b.callMs[spanMerge])
	fmt.Fprintf(out, "  counts (repeat exactly): refreshes %.0f, alarms %.0f, vh_buckets %.0f, messages %.4f, datagrams %.4f, records %.4f per interval\n",
		b.refreshes, b.alarms, b.vhBuckets, b.messages, b.datagrams, b.records)
}

// metrics is the per-layer JSON. The ingest figures read 0 on workloads
// that hand volumes straight to the monitors, and agg.merge_ms on flat ones.
func (b budget) metrics() map[string]metric {
	return map[string]metric{
		"ingest.handle_ms":        {b.callMs[spanHandle], "ms"},
		"ingest.seal_wait_ms":     {b.callMs[spanSealWait], "ms"},
		"ingest.datagrams":        {b.datagrams, "count"},
		"ingest.records":          {b.records, "count"},
		"monitor.update_ms":       {b.callMs[spanUpdate], "ms"},
		"monitor.snapshot_ms":     {b.callMs[spanSnapshot], "ms"},
		"monitor.vh_buckets":      {b.vhBuckets, "count"},
		"agg.merge_ms":            {b.callMs[spanMerge], "ms"},
		"noc.fetch_ms":            {b.callMs[spanFetch], "ms"},
		"core.distance_us":        {b.callMs[rowDistance] * 1e3, "us"},
		"core.rebuild_ms":         {b.callMs[rowRebuild], "ms"},
		"core.refreshes":          {b.refreshes, "count"},
		"core.alarms":             {b.alarms, "count"},
		"mat.gram_ms":             {b.callMs[spanGram], "ms"},
		"mat.eigen_ms":            {b.callMs[spanEigen], "ms"},
		"anomography.identify_ms": {b.callMs[spanIdentify], "ms"},
		"transport.messages":      {b.messages, "count"},
		"transport.fanin_ms":      {b.fanin(), "ms"},
	}
}
