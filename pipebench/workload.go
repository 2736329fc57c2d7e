package main

import (
	"fmt"
	"math"

	"streampca/internal/eval"
	"streampca/internal/ingest"
	"streampca/internal/traffic"
)

// Detector and sketch parameters shared by every workload: the paper's
// random projection with the Jacobi model builder, ε = α = 0.01 and a fixed
// rank-6 normal subspace, as in abilene-eval's identification scorecard.
const (
	perDay    = traffic.IntervalsPerDay5Min
	sketchLen = 100
	epsilon   = 0.01
	alpha     = 0.01
	rank      = 6
	// recordsPerFlow splits each flow's interval volume across this many
	// NetFlow records, so the ingest workload aggregates several records
	// per flow as a collector behind a real exporter does. The rate is
	// assumed: no record rate of the Abilene NetFlow data is at hand
	// (README.md, workloads).
	recordsPerFlow = 16
	// exportBase is ingest.ExportOptions' default BaseTime.
	exportBase = 1_200_000_000
)

// workload is one input mix. Each runs the labelled attack suite of
// eval.BuildIdentifyTrace (spike, port scan, DDoS, flash crowd, low-and-slow
// exfiltration) after a one-window warmup.
type workload struct {
	name string
	// routers is the router count; 9 is the Abilene topology and its
	// gravity weights, m = routers² OD flows.
	routers int
	// perRouter monitors split each router's outgoing flows between them.
	perRouter int
	// aggregators > 0 puts a mid tier between the monitors and the NOC;
	// monitor i registers with aggregator i mod aggregators.
	aggregators int
	// netflow feeds each monitor NetFlow v5 datagrams through its own
	// ingest.Pipeline instead of handing it volume rows.
	netflow bool
	// window is the sliding window n; intervals the trace length.
	window    int
	intervals int
	// namesSpike asks the spike's alarm to name the spiked flow. At m = 81
	// the rebuild the spike's own alarm triggers often absorbs the flow into
	// the normal subspace, and on most seeds the pursuit then names other
	// flows or none (README.md, findings); at m = 256 it names the flow.
	namesSpike bool
}

// wide-retrain runs the shortest post-warmup region BuildIdentifyTrace
// accepts (120 intervals): each of its rebuilds costs about a second.
var workloads = []workload{
	{name: "abilene-netflow", routers: 9, perRouter: 1, netflow: true, window: perDay, intervals: 2 * perDay},
	{name: "wide-retrain", routers: 16, perRouter: 1, window: perDay, intervals: perDay + 120, namesSpike: true},
	{name: "abilene-federated", routers: 9, perRouter: 3, aggregators: 3, window: perDay, intervals: 2 * perDay},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// flows is m, the network-wide OD flow count.
func (w workload) flows() int { return w.routers * w.routers }

// monitors is the monitor count.
func (w workload) monitors() int { return w.routers * w.perRouter }

// lastInterval is the last decided interval. Intervals are numbered from 1
// (row t-1 of the trace). Ingest seals interval t only when records of t+1
// arrive, so the last row of the netflow workload only closes its
// predecessor and is never decided itself.
func (w workload) lastInterval() int64 {
	if w.netflow {
		return int64(w.intervals - 1)
	}
	return int64(w.intervals)
}

// measured is the number of post-warmup intervals: the operations of a round.
func (w workload) measured() int { return int(w.lastInterval()) - w.window + 1 }

// inputs is everything a round feeds the program, generated from the seed,
// plus the vectors the NOC must decide on.
type inputs struct {
	tr *traffic.Trace
	// flows[i] lists monitor i's global flow ids, ascending.
	flows [][]int
	// local[t-1][i] is monitor i's volume slice of interval t (direct
	// workloads only).
	local [][][]float64
	// datagrams[i][row] are monitor i's NetFlow datagrams for a trace row
	// (netflow workload only).
	datagrams [][][][]byte
	// vectors[t-1] is the network-wide vector interval t must be decided
	// on, computed here from the trace and not by the program: the trace
	// row for direct workloads, and the row rounded to whole bytes for
	// NetFlow (ExportTrace's round(volume)).
	vectors [][]float64
}

func routerNames(n int) []string {
	if n == len(traffic.AbileneRouters) {
		return nil // Abilene names and gravity weights
	}
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("R%02d", i)
	}
	return names
}

// monitorFlows assigns router r's outgoing flows r·R+d to its perRouter
// monitors by d mod perRouter.
func monitorFlows(w workload) [][]int {
	out := make([][]int, 0, w.monitors())
	for r := 0; r < w.routers; r++ {
		for k := 0; k < w.perRouter; k++ {
			var fl []int
			for d := k; d < w.routers; d += w.perRouter {
				fl = append(fl, r*w.routers+d)
			}
			out = append(out, fl)
		}
	}
	return out
}

func buildInputs(w workload, seed int64) (*inputs, error) {
	tr, err := eval.BuildIdentifyTrace(seed, w.intervals, perDay, w.window, routerNames(w.routers))
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	in := &inputs{tr: tr, flows: monitorFlows(w)}
	in.vectors = make([][]float64, w.lastInterval())
	for i := range in.vectors {
		v := append([]float64(nil), tr.Volumes.RowView(i)...)
		if w.netflow {
			for j := range v {
				v[j] = math.Round(v[j])
			}
		}
		in.vectors[i] = v
	}
	if w.netflow {
		in.datagrams = make([][][][]byte, len(in.flows))
		for i, fl := range in.flows {
			if in.datagrams[i], err = exportGrouped(tr, fl); err != nil {
				return nil, fmt.Errorf("export monitor %d: %w", i, err)
			}
		}
		return in, nil
	}
	in.local = make([][][]float64, len(in.vectors))
	for t, v := range in.vectors {
		per := make([][]float64, len(in.flows))
		for i, fl := range in.flows {
			per[i] = make([]float64, len(fl))
			for k, f := range fl {
				per[i][k] = v[f]
			}
		}
		in.local[t] = per
	}
	return in, nil
}

// exportGrouped serializes one monitor's flows to NetFlow v5 datagrams,
// grouped by trace row (ExportTrace flushes at interval boundaries, so no
// datagram spans two rows).
func exportGrouped(tr *traffic.Trace, flows []int) ([][][]byte, error) {
	owned := make(map[int]bool, len(flows))
	for _, f := range flows {
		owned[f] = true
	}
	out := make([][][]byte, tr.NumIntervals())
	var d ingest.Datagram
	err := ingest.ExportTrace(tr, ingest.ExportOptions{
		RecordsPerFlow: recordsPerFlow,
		FlowFilter:     func(id int) bool { return owned[id] },
	}, func(buf []byte) error {
		if err := ingest.DecodeDatagram(buf, &d); err != nil {
			return err
		}
		row := (int64(d.Header.UnixSecs) - exportBase) / 300
		if row < 0 || row >= int64(len(out)) {
			return fmt.Errorf("datagram at unix %d outside the trace", d.Header.UnixSecs)
		}
		out[row] = append(out[row], append([]byte(nil), buf...))
		return nil
	})
	return out, err
}

// localOf extracts monitor flows from a network-wide row.
func localOf(row []float64, flows []int) []float64 {
	out := make([]float64, len(flows))
	for k, f := range flows {
		out[k] = row[f]
	}
	return out
}
