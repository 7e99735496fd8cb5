package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"asyncfd/internal/ident"
)

// TestWorkloadsSmoke runs every workload at its tiny size in both modes and
// checks that the run is correct, that it reports exactly the defined metric
// set with the defined units, and that the last output line has exactly the
// result keys.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			w, traced := w, traced
			t.Run(fmt.Sprintf("%s/trace=%v", w, traced), func(t *testing.T) {
				o := options{seed: 1, trace: traced, minCycles: 2, tiny: true}
				defs := endToEnd
				if traced {
					o.minCycles, defs = 1, perLayer
				}
				rep, err := measure(w, o)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Result.Correct {
					t.Fatalf("correctness checks failed: %v", rep.Checks)
				}
				if rep.Result.Attempted < 1 || rep.Result.Failed != 0 {
					t.Fatalf("attempted=%d failed=%d", rep.Result.Attempted, rep.Result.Failed)
				}
				if len(rep.Result.Metrics) != len(defs) {
					t.Errorf("%d metrics reported, %d defined", len(rep.Result.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := rep.Result.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("metric %s: got %+v (present=%v), want unit %s", d.name, m, ok, d.unit)
					}
				}
				if traced && rep.Result.Metrics["tracing.run_s"].Value <= 0 {
					t.Error("traced run reported no traced run time")
				}
				var buf bytes.Buffer
				if err := printReport(&buf, rep); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
				var last map[string]json.RawMessage
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
					t.Fatalf("last line is not JSON: %v", err)
				}
				for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
					if _, ok := last[k]; !ok {
						t.Errorf("last line lacks %q", k)
					}
				}
				if len(last) != 4 {
					t.Errorf("last line has %d keys, want 4", len(last))
				}
			})
		}
	}
}

// TestChecksCatchFailures shows that the correctness checks fail a run: a
// crash at the horizon cannot be detected, and inputs that change between
// passes of one seed break the determinism check.
func TestChecksCatchFailures(t *testing.T) {
	size := simSize{n: 8, horizon: 5 * time.Second}
	late := &simWorkload{name: "late-crash", size: size, build: func(c *simCluster, gen *rand.Rand) error {
		if err := buildQRMesh(c, gen); err != nil {
			return err
		}
		obs := c.members.Clone()
		obs.Remove(0)
		c.crashAt(0, c.size.horizon, obs)
		return nil
	}}
	out, err := runSim(late, options{seed: 1, minCycles: 1})
	if err != nil {
		t.Fatal(err)
	}
	if out.failed == 0 || len(out.checks) == 0 {
		t.Errorf("undetectable crash passed: failed=%d checks=%v", out.failed, out.checks)
	}

	builds := 0
	drift := &simWorkload{name: "drift", size: size, build: func(c *simCluster, gen *rand.Rand) error {
		if err := buildQRMesh(c, gen); err != nil {
			return err
		}
		builds++
		victim := ident.ID(builds % size.n)
		obs := c.members.Clone()
		obs.Remove(victim)
		c.crashAt(victim, time.Second, obs)
		return nil
	}}
	out, err = runSim(drift, options{seed: 1, minCycles: 2})
	if err != nil {
		t.Fatal(err)
	}
	diverged := false
	for _, c := range out.checks {
		diverged = diverged || strings.Contains(c, "diverged")
	}
	if !diverged {
		t.Errorf("passes with different inputs passed the determinism check: %v", out.checks)
	}
}

// TestBenchmarkJSON holds BENCHMARK.json at the repository root to the
// metric and workload definitions in this package.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name, Unit, Better string
		Bound              float64
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if fmt.Sprint(names) != fmt.Sprint(workloadNames) {
		t.Errorf("workloads %v, want %v", names, workloadNames)
	}
	same := func(kind string, got []def, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics declared, %d defined", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d] = %s (%s), want %s (%s)", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	for _, d := range b.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}

func TestHistQuantile(t *testing.T) {
	var h hist
	for v := int64(1); v <= 100000; v++ {
		h.add(v)
	}
	for _, q := range []float64{0.5, 0.99} {
		want := q * 100000
		if got := h.quantile(q); got < want*0.97 || got > want*1.03 {
			t.Errorf("quantile(%v) = %v, want ≈ %v", q, got, want)
		}
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
}
