// Command pipebench is the end-to-end benchmark of the streaming PCA
// pipeline: NetFlow ingest, monitors, aggregators and the NOC, run as the
// real services over loopback TCP in one process and fed a labelled
// traffic trace in a closed loop. See README.md.
//
//	bash pipebench/run.sh --workload abilene-netflow --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// defaultSeed is the workload seed used while the benchmark was built;
// README.md names a second seed on which every check also passes.
const defaultSeed = 1

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("pipebench", flag.ContinueOnError)
	name := fs.String("workload", workloads[0].name, "workload: abilene-netflow, wide-retrain or abilene-federated")
	seed := fs.Int64("seed", defaultSeed, "workload seed: the trace and its injected events are generated from it")
	seconds := fs.Float64("seconds", 20, "measure whole rounds until this many seconds have passed (at least one round)")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: a traced run printing per-layer metrics and the budget table")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "pipebench: bad arguments:", err)
		return 2
	}
	runtime.GOMAXPROCS(nproc())
	fmt.Fprintf(out, "workload %s: m=%d flows, %d monitors, %d aggregators, window %d, %d post-warmup intervals per round, nproc %d, seed %d\n",
		w.name, w.flows(), w.monitors(), w.aggregators, w.window, w.measured(), nproc(), *seed)
	var res result
	if *traced == 1 {
		res, err = tracedRun(w, *seed, *seconds, out)
	} else {
		res, err = e2eRun(w, *seed, *seconds, out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pipebench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pipebench:", err)
		return 1
	}
	fmt.Fprintln(out, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// checkedRound runs one round and reports every check that failed on it,
// including a disagreement with the reference decisions (nil for none).
func checkedRound(w workload, seed int64, ref []decision, out io.Writer) (roundResult, bool, error) {
	r, err := runRound(w, seed, false)
	if err != nil {
		return r, false, err
	}
	if r.abort != nil {
		fmt.Fprintf(out, "round aborted, %d intervals failed: %v\n", r.failed, r.abort)
	}
	probs := r.problems
	if ref != nil && r.abort == nil {
		if diff := diffDecisions(r.decisions, ref); diff != "" {
			probs = append(probs, "decisions differ from the reference: "+diff)
		}
	}
	for _, p := range probs {
		fmt.Fprintln(out, "CHECK FAILED:", p)
	}
	return r, len(probs) == 0, nil
}

// e2eRun measures whole rounds of the service pipeline. Every round must
// decide exactly as the first; abilene-federated must also decide exactly
// as the flat in-process composition of the same trace.
func e2eRun(w workload, seed int64, seconds float64, out io.Writer) (result, error) {
	var ref []decision
	if w.aggregators > 0 {
		in, err := buildInputs(w, seed)
		if err != nil {
			return result{}, err
		}
		flat, err := runInProc(w, in, false, false)
		if err != nil {
			return result{}, fmt.Errorf("flat reference: %w", err)
		}
		ref = flat.decisions
	}
	start := time.Now()
	res := result{Correct: true}
	// Per round: post-warmup intervals per wall-clock second, CPU ms per
	// interval, and the live heap at its end.
	var rates, cpus, heaps []float64
	var quiet, refresh, alarm, setups, wireQuiet, wireRefresh []float64
	for len(rates) == 0 || time.Since(start).Seconds() < seconds {
		r, ok, err := checkedRound(w, seed, ref, out)
		if err != nil {
			return result{}, err
		}
		res.Correct = res.Correct && ok
		if ref == nil {
			ref = r.decisions
		}
		res.Attempted += r.attempted
		res.Failed += r.failed
		n := float64(len(r.decisions))
		if n == 0 {
			return result{}, fmt.Errorf("round decided no interval")
		}
		rates = append(rates, n/r.wall.Seconds())
		cpus = append(cpus, r.cpu.Seconds()*1e3/n)
		heaps = append(heaps, float64(r.heapBytes)/(1<<20))
		quiet = append(quiet, r.quiet...)
		refresh = append(refresh, r.refresh...)
		alarm = append(alarm, r.alarm...)
		wireQuiet = append(wireQuiet, r.wireQuiet...)
		wireRefresh = append(wireRefresh, r.wireRefresh...)
		setups = append(setups, r.setup.Seconds())
		fmt.Fprintf(out, "round %d: setup %.3f s, %d intervals (%d rebuilt the model, %d alarmed) in %.3f s: %.3f intervals/s, %.4f ms CPU per interval\n",
			len(rates), r.setup.Seconds(), len(r.decisions), len(r.refresh), len(r.alarm), r.wall.Seconds(),
			rates[len(rates)-1], cpus[len(cpus)-1])
	}
	// setup_s is a median of at least minSetups set-ups: runs whose rounds
	// are long set up again without measuring.
	for len(setups) < minSetups {
		r, err := runRound(w, seed, true)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, r.setup.Seconds())
	}
	fmt.Fprintf(out, "setup: %d set-ups, median %.4f s\n", len(setups), median(setups))
	for _, l := range []struct {
		name string
		xs   []float64
	}{{"quiet decision", quiet}, {"refresh decision", refresh}, {"alarm at last monitor", alarm}} {
		s := summarize(l.xs)
		if s.tail > 0 {
			fmt.Fprintf(out, "%s latency: n=%d p50 %.3f ms, p%g %.3f ms (reference only)\n", l.name, s.n, s.median, s.tail, s.tailValue)
		} else {
			fmt.Fprintf(out, "%s latency: n=%d p50 %.3f ms\n", l.name, s.n, s.median)
		}
	}
	res.Metrics = map[string]metric{
		"setup_s":                 {median(setups), "s"},
		"intervals_per_s":         {median(rates), "1/s"},
		"cpu_ms_per_interval":     {median(cpus), "ms"},
		"quiet_decision_p50_ms":   {summarize(quiet).median, "ms"},
		"refresh_decision_p50_ms": {summarize(refresh).median, "ms"},
		"alarm_p50_ms":            {summarize(alarm).median, "ms"},
		"wire_kib_quiet":          {median(wireQuiet), "KiB"},
		"wire_kib_refresh":        {median(wireRefresh), "KiB"},
		"heap_mib":                {median(heaps), "MiB"},
	}
	return res, nil
}

// minSetups is the fewest set-ups setup_s is the median of.
const minSetups = 9

// tracedRun pairs a service-pipeline round with a traced run of the
// in-process composition on the same trace, checks that both decide
// identically, and reports the per-layer metrics and the budget.
func tracedRun(w workload, seed int64, seconds float64, out io.Writer) (result, error) {
	start := time.Now()
	res := result{Correct: true}
	var budgets []budget
	for len(budgets) == 0 || time.Since(start).Seconds() < seconds {
		r, ok, err := checkedRound(w, seed, nil, out)
		if err != nil {
			return result{}, err
		}
		res.Attempted += r.attempted
		res.Failed += r.failed
		in, err := buildInputs(w, seed)
		if err != nil {
			return result{}, err
		}
		ir, err := runInProc(w, in, true, w.aggregators > 0)
		if err != nil {
			return result{}, fmt.Errorf("traced run: %w", err)
		}
		if diff := diffDecisions(r.decisions, ir.decisions); diff != "" {
			fmt.Fprintln(out, "CHECK FAILED: the traced run decides differently:", diff)
			ok = false
		}
		res.Correct = res.Correct && ok
		budgets = append(budgets, reduce(w, r, ir))
	}
	b := meanBudget(budgets)
	b.print(w, out)
	res.Metrics = b.metrics()
	return res, nil
}
