package main

import (
	"fmt"
	"math"

	"streampca/internal/core"
	"streampca/internal/traffic"
)

// decision is one post-warmup NOC verdict as the benchmark records it.
type decision struct {
	t      int64
	vector []float64
	res    core.Decision
	// culprits are the identified flows in rank order (alarms only).
	culprits []int
}

// roundRecord is what the checks read from one round.
type roundRecord struct {
	decisions []decision
	// alarms[t] counts monitors that received interval t's alarm.
	alarms map[int64]int
}

// burstKinds are the injected events that must raise an alarm inside their
// window; the value says whether that alarm's identification must also name
// an injected flow. The low-and-slow exfiltration is exempt: it rides under
// the threshold by design (EXPERIMENTS.md, identification scorecard). The
// spike must be named only on workloads whose namesSpike is set (see
// workload).
var burstKinds = map[traffic.AnomalyKind]bool{
	traffic.Spike:      false,
	traffic.PortScan:   true,
	traffic.DDoS:       true,
	traffic.FlashCrowd: true,
}

// checkRound verifies one round against the inputs and returns every
// problem found (nil when the round is correct). The checks that need the
// whole round, decision count and burst events, run only on a complete
// one: the intervals a round lost are counted as failed instead.
func checkRound(w workload, in *inputs, rec roundRecord, complete bool) []string {
	var probs []string
	add := func(format string, args ...any) {
		if len(probs) < 20 {
			probs = append(probs, fmt.Sprintf(format, args...))
		}
	}
	first, last := int64(w.window), w.lastInterval()
	if got, want := len(rec.decisions), int(last-first+1); complete && got != want {
		add("%d post-warmup decisions, want %d", got, want)
	}
	for k, d := range rec.decisions {
		if want := first + int64(k); d.t != want {
			add("decision %d is for interval %d, want %d (missing, duplicated or out of order)", k, d.t, want)
			continue
		}
		if !sameVector(d.vector, in.vectors[d.t-1]) {
			add("interval %d decided on a vector other than the trace's", d.t)
		}
		r := d.res
		if want := !r.ThresholdUnavailable && r.Distance > r.Threshold; r.Anomalous != want {
			add("interval %d: anomalous=%v with distance %v, threshold %v", d.t, r.Anomalous, r.Distance, r.Threshold)
		}
		if n := rec.alarms[d.t]; r.Anomalous && n != w.monitors() {
			add("interval %d: alarm reached %d of %d monitors", d.t, n, w.monitors())
		} else if !r.Anomalous && n != 0 {
			add("interval %d: %d alarm deliveries for a quiet decision", d.t, n)
		}
	}
	for _, inj := range in.tr.Injections {
		named, burst := burstKinds[inj.Kind]
		if !burst || !complete {
			continue
		}
		named = named || (inj.Kind == traffic.Spike && w.namesSpike)
		if alarmed, ok := alarmedIn(in.tr, rec.decisions, inj); !alarmed {
			add("%s event at rows [%d,%d) raised no alarm", inj.Kind, inj.Start, inj.End)
		} else if named && !ok {
			add("%s event at rows [%d,%d) raised no alarm naming an injected flow", inj.Kind, inj.Start, inj.End)
		}
	}
	return probs
}

// alarmedIn reports whether some alarm falls inside the injection's window,
// and whether one of those names a flow of Trace.AnomalousFlows for its row.
func alarmedIn(tr *traffic.Trace, ds []decision, inj traffic.Injection) (alarmed, named bool) {
	for _, d := range ds {
		row := int(d.t - 1)
		if row < inj.Start || row >= inj.End || !d.res.Anomalous {
			continue
		}
		alarmed = true
		truth := map[int]bool{}
		for _, f := range tr.AnomalousFlows(row) {
			truth[f] = true
		}
		for _, f := range d.culprits {
			if truth[f] {
				return true, true
			}
		}
	}
	return alarmed, false
}

func sameVector(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// diffDecisions compares two decision sequences bit for bit and describes
// the first difference ("" when equal).
func diffDecisions(a, b []decision) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%d decisions vs %d", len(a), len(b))
	}
	for k := range a {
		x, y := a[k], b[k]
		switch {
		case x.t != y.t:
			return fmt.Sprintf("decision %d: interval %d vs %d", k, x.t, y.t)
		case !sameVector(x.vector, y.vector):
			return fmt.Sprintf("interval %d: vectors differ", x.t)
		case !sameResult(x.res, y.res):
			return fmt.Sprintf("interval %d: %+v vs %+v", x.t, x.res, y.res)
		case fmt.Sprint(x.culprits) != fmt.Sprint(y.culprits):
			return fmt.Sprintf("interval %d: culprits %v vs %v", x.t, x.culprits, y.culprits)
		}
	}
	return ""
}

func sameResult(a, b core.Decision) bool {
	bits := math.Float64bits
	return bits(a.Distance) == bits(b.Distance) && bits(a.Threshold) == bits(b.Threshold) &&
		bits(a.StaleDistance) == bits(b.StaleDistance) &&
		a.Anomalous == b.Anomalous && a.Refreshed == b.Refreshed &&
		a.ThresholdUnavailable == b.ThresholdUnavailable &&
		a.Degraded == b.Degraded && a.StaleFlows == b.StaleFlows
}

func culpritsOf(id *core.Identification) []int {
	if id == nil {
		return nil
	}
	out := make([]int, len(id.Flows))
	for i, f := range id.Flows {
		out[i] = f.Flow
	}
	return out
}
