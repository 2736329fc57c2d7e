package main

import (
	"strings"
	"sync"
	"testing"

	"streampca/internal/traffic"
)

// referenceRun decides the netflow workload once in process; tests corrupt
// copies of it. A reference round never fails the checks.
var referenceRun = sync.OnceValues(func() (*inputs, roundRecord) {
	w, err := findWorkload("abilene-netflow")
	if err != nil {
		panic(err)
	}
	in, err := buildInputs(w, defaultSeed)
	if err != nil {
		panic(err)
	}
	r, err := runInProc(w, in, false, false)
	if err != nil {
		panic(err)
	}
	rec := roundRecord{decisions: r.decisions, alarms: map[int64]int{}}
	for _, d := range r.decisions {
		if d.res.Anomalous {
			rec.alarms[d.t] = w.monitors()
		}
	}
	return in, rec
})

// corrupted returns a deep enough copy of the reference round to mutate.
func corrupted(t *testing.T) (workload, *inputs, roundRecord) {
	t.Helper()
	if testing.Short() {
		t.Skip("decides a whole trace")
	}
	w, _ := findWorkload("abilene-netflow")
	in, rec := referenceRun()
	out := roundRecord{alarms: map[int64]int{}}
	for t, n := range rec.alarms {
		out.alarms[t] = n
	}
	for _, d := range rec.decisions {
		d.vector = append([]float64(nil), d.vector...)
		d.culprits = append([]int(nil), d.culprits...)
		out.decisions = append(out.decisions, d)
	}
	return w, in, out
}

func expectProblem(t *testing.T, probs []string, want string) {
	t.Helper()
	for _, p := range probs {
		if strings.Contains(p, want) {
			return
		}
	}
	t.Fatalf("no problem mentioning %q in %q", want, probs)
}

func TestCheckAcceptsReference(t *testing.T) {
	w, in, rec := corrupted(t)
	if probs := checkRound(w, in, rec, true); len(probs) != 0 {
		t.Fatalf("reference round fails its checks: %q", probs)
	}
}

func TestCheckRejectsPerturbedVector(t *testing.T) {
	w, in, rec := corrupted(t)
	rec.decisions[7].vector[3] += 1
	expectProblem(t, checkRound(w, in, rec, true), "vector other than the trace's")
}

func TestCheckRejectsMissingDecision(t *testing.T) {
	w, in, rec := corrupted(t)
	rec.decisions = append(rec.decisions[:10], rec.decisions[11:]...)
	expectProblem(t, checkRound(w, in, rec, true), "missing, duplicated or out of order")
}

func TestCheckRejectsMissingAlarmDelivery(t *testing.T) {
	w, in, rec := corrupted(t)
	for _, d := range rec.decisions {
		if d.res.Anomalous {
			rec.alarms[d.t]--
			expectProblem(t, checkRound(w, in, rec, true), "alarm reached")
			return
		}
	}
	t.Fatal("reference round raised no alarm")
}

func TestCheckRejectsAlarmWithoutExcess(t *testing.T) {
	w, in, rec := corrupted(t)
	for i, d := range rec.decisions {
		if !d.res.Anomalous {
			rec.decisions[i].res.Anomalous = true
			rec.alarms[d.t] = w.monitors()
			expectProblem(t, checkRound(w, in, rec, true), "anomalous=true")
			return
		}
	}
}

func TestCheckRejectsSilentBurst(t *testing.T) {
	w, in, rec := corrupted(t)
	var burst traffic.Injection
	for _, inj := range in.tr.Injections {
		if inj.Kind == traffic.PortScan {
			burst = inj
		}
	}
	for i, d := range rec.decisions {
		if row := int(d.t - 1); row >= burst.Start && row < burst.End && d.res.Anomalous {
			rec.decisions[i].res.Anomalous = false
			rec.decisions[i].res.Distance = rec.decisions[i].res.Threshold
			delete(rec.alarms, d.t)
		}
	}
	expectProblem(t, checkRound(w, in, rec, true), "port-scan event")
}

func TestDiffDecisions(t *testing.T) {
	_, _, a := corrupted(t)
	_, _, b := corrupted(t)
	if diff := diffDecisions(a.decisions, b.decisions); diff != "" {
		t.Fatalf("identical runs differ: %s", diff)
	}
	b.decisions[5].res.Distance *= 1 + 1e-15
	if diffDecisions(a.decisions, b.decisions) == "" {
		t.Fatal("a one-ulp distance change went unnoticed")
	}
}

func TestCheckRejectsUnnamedSpike(t *testing.T) {
	w, in, rec := corrupted(t)
	w.namesSpike = true
	var spike traffic.Injection
	for _, inj := range in.tr.Injections {
		if inj.Kind == traffic.Spike {
			spike = inj
		}
	}
	for i, d := range rec.decisions {
		if row := int(d.t - 1); row >= spike.Start && row < spike.End {
			rec.decisions[i].culprits = nil
		}
	}
	expectProblem(t, checkRound(w, in, rec, true), "spike event")
}
