package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkDoc is the part of BENCHMARK.json the benchmark must agree with.
type benchmarkDoc struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []bound `json:"end_to_end"`
	PerLayer []bound `json:"per_layer"`
}

func readBenchmark(t *testing.T) benchmarkDoc {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// smokeConfig runs a workload at smoke size for a moment.
func smokeConfig(t *testing.T) config {
	return config{seed: 3, small: true, seconds: 0.05, setups: 1, traceDir: t.TempDir()}
}

// printed reports whether out has the line "workload name value unit".
func printed(out, workload, name, unit string) bool {
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) == 4 && f[0] == workload && f[1] == name && f[3] == unit {
			return true
		}
	}
	return false
}

func TestWorkloadsMatchBenchmarkJSON(t *testing.T) {
	doc := readBenchmark(t)
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if fmt.Sprint(names) != fmt.Sprint(ours) {
		t.Errorf("BENCHMARK.json workloads %v, tsbench runs %v", names, ours)
	}
	for _, c := range []struct {
		listed []bound
		defs   []metricDef
	}{{doc.EndToEnd, endToEnd}, {doc.PerLayer, perLayer}} {
		if len(c.listed) != len(c.defs) {
			t.Errorf("BENCHMARK.json lists %d metrics, tsbench reports %d", len(c.listed), len(c.defs))
			continue
		}
		for i, m := range c.listed {
			if d := c.defs[i]; m.Name != d.name || m.Unit != d.unit {
				t.Errorf("BENCHMARK.json metric %d is %s (%s), tsbench reports %s (%s)", i, m.Name, m.Unit, d.name, d.unit)
			}
		}
	}
}

func TestWorkloadsEndToEnd(t *testing.T) {
	doc := readBenchmark(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var out, errs bytes.Buffer
			res, err := runWorkload(w.name, w.setup, smokeConfig(t), &out, &errs)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 2 {
				t.Fatalf("correct %v, %d of %d failed:\n%s", res.Correct, res.Failed, res.Attempted, errs.String())
			}
			if len(res.Metrics) != len(doc.EndToEnd) {
				t.Errorf("result has %d metrics, want the %d end-to-end ones", len(res.Metrics), len(doc.EndToEnd))
			}
			for _, m := range doc.EndToEnd {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || !(got.Value > 0) {
					t.Errorf("%s: got %+v, want a positive value in %s", m.Name, got, m.Unit)
				}
				if !printed(out.String(), w.name, m.Name, m.Unit) {
					t.Errorf("%s: no output line with its unit %s", m.Name, m.Unit)
				}
			}
			if !printed(out.String(), w.name, "fail_frac", "ratio") {
				t.Errorf("no fail_frac line in:\n%s", out.String())
			}
		})
	}
}

func TestWorkloadsTraced(t *testing.T) {
	doc := readBenchmark(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := smokeConfig(t)
			cfg.trace = true
			var errs bytes.Buffer
			res, err := runWorkload(w.name, w.setup, cfg, io.Discard, &errs)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Fatalf("%d of %d failed:\n%s", res.Failed, res.Attempted, errs.String())
			}
			data, err := os.ReadFile(filepath.Join(cfg.traceDir, w.name+".layers.json"))
			if err != nil {
				t.Fatal(err)
			}
			var layers struct {
				Metrics map[string]metric `json:"metrics"`
				Ladder  []rung            `json:"ladder"`
			}
			if err := json.Unmarshal(data, &layers); err != nil {
				t.Fatal(err)
			}
			for _, m := range doc.PerLayer {
				if got, ok := layers.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("layers.json: %s is %+v, want a value in %s", m.Name, got, m.Unit)
				}
			}
			var cpu float64
			for name, m := range layers.Metrics {
				if strings.HasPrefix(name, "cpu.") {
					cpu += m.Value
				}
			}
			if math.Abs(cpu-100) > 1 {
				t.Errorf("CPU shares sum to %.2f%%, want 100 ± 1", cpu)
			}
			if len(layers.Ladder) != 5 {
				t.Errorf("ladder has %d rungs, want 5", len(layers.Ladder))
			}
			for _, f := range []string{".cpu.pprof", ".spans.json"} {
				if st, err := os.Stat(filepath.Join(cfg.traceDir, w.name+f)); err != nil || st.Size() == 0 {
					t.Errorf("%s%s missing or empty: %v", w.name, f, err)
				}
			}
		})
	}
}

func TestWrongDigestFailsRun(t *testing.T) {
	cfg := smokeConfig(t)
	cfg.digests = map[string]string{"canonical": strings.Repeat("0", 64)}
	var errs bytes.Buffer
	res, err := runWorkload("canonical", setupCanonical, cfg, io.Discard, &errs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Fatalf("a wrong digest passed: %+v", res)
	}
	if !strings.Contains(errs.String(), "sha256") {
		t.Errorf("stderr does not name the digest mismatch:\n%s", errs.String())
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q2, q3 := quartiles(v); q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestVerdicts(t *testing.T) {
	lower := bound{Better: "lower", Bound: 0.10}
	base := []float64{100, 101, 99, 100, 102, 98, 100}
	for _, c := range []struct {
		b    []float64
		want string
	}{
		{[]float64{101, 100, 99, 102, 100, 100, 98}, "unchanged"},
		{[]float64{120, 121, 119, 120, 122, 118, 120}, "worse"},
		{[]float64{90, 91, 89, 90, 92, 88, 90}, "better"},
		{[]float64{60, 140, 90, 130, 70, 100, 120}, "unresolved"},
	} {
		if got := verdict(base, c.b, lower); got != c.want {
			t.Errorf("verdict(%v) = %s, want %s", c.b, got, c.want)
		}
	}
	wins := make([]float64, 10)
	for i := range wins {
		wins[i] = 90 + float64(i%3)
	}
	if got := judgeClaim(append(base, 100, 101, 99), wins, "lower", "w/m"); !strings.Contains(got, "holds") {
		t.Errorf("judgeClaim = %q, want the claim to hold", got)
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string) string {
		path := filepath.Join(dir, name)
		for i := range 5 {
			ms := map[string]metric{}
			for _, d := range endToEnd {
				ms[d.name] = metric{float64(100 + i), d.unit}
			}
			if err := appendRecord(path, record{"canonical", uint64(i), 0, result{true, 1, 0, ms}}); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	a, b := write("a.ndjson"), write("b.ndjson")
	var out bytes.Buffer
	if err := compare(&out, filepath.Join("..", "..", "BENCHMARK.json"), a, b, ""); err != nil {
		t.Fatal(err)
	}
	for _, d := range endToEnd {
		if !strings.Contains(out.String(), "canonical     "+d.name) {
			t.Errorf("no row for %s:\n%s", d.name, out.String())
		}
	}
	if strings.Count(out.String(), "unchanged") != len(endToEnd) {
		t.Errorf("identical sides should be unchanged on every metric:\n%s", out.String())
	}
}
