package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"
)

// bound is one end-to-end metric's entry in BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBounds(path string) ([]bound, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return doc.EndToEnd, nil
}

// series maps workload -> metric -> values, in the order the runs were
// recorded.
type series map[string]map[string][]float64

// readRecords loads the end-to-end runs of a result file written by -out.
func readRecords(path string) (series, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s := series{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Trace != 0 {
			continue
		}
		if s[r.Workload] == nil {
			s[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Result.Metrics {
			s[r.Workload][name] = append(s[r.Workload][name], m.Value)
		}
	}
	return s, sc.Err()
}

// quartiles returns the first quartile, median and third quartile of v
// by the method of Python's statistics.quantiles(v, n=4), "exclusive".
func quartiles(v []float64) (q1, q2, q3 float64) {
	d := slices.Sorted(slices.Values(v))
	n := len(d)
	if n < 2 {
		return d[0], d[0], d[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q(1), median(d), q(3)
}

// worse is how much worse b is than a, as a share of a: positive when b
// is worse in the metric's direction.
func worse(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// verdict judges the change's runs b against the base's runs a. A
// metric whose run-to-run spread is wider than its bound is unresolved,
// unless every change run reads better than every base run.
func verdict(a, b []float64, bd bound) string {
	a1, am, a3 := quartiles(a)
	b1, bm, b3 := quartiles(b)
	spread := max((a3-a1)/math.Abs(am), (b3-b1)/math.Abs(bm))
	w := worse(am, bm, bd.Better)
	switch {
	case allBetter(a, b, bd.Better):
		return "better"
	case spread > bd.Bound:
		return "unresolved"
	case w > bd.Bound:
		return "worse"
	case -w > (a3-a1)/math.Abs(am):
		return "better"
	}
	return "unchanged"
}

// allBetter reports whether every value of b is better than every
// value of a.
func allBetter(a, b []float64, better string) bool {
	if better == "higher" {
		return slices.Min(b) > slices.Max(a)
	}
	return slices.Max(b) < slices.Min(a)
}

// compare prints, for every workload and end-to-end metric, both sides'
// quartiles and a verdict, and judges the claim (workload/metric) when
// one is named. Each side needs at least five runs per workload.
func compare(w io.Writer, benchPath, aPath, bPath, claim string) error {
	bounds, err := readBounds(benchPath)
	if err != nil {
		return err
	}
	a, err := readRecords(aPath)
	if err != nil {
		return err
	}
	b, err := readRecords(bPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-13s %-20s %-32s %-32s %8s %s\n", "workload", "metric", "A q1 / median / q3", "B q1 / median / q3", "B vs A", "verdict")
	compared := 0
	for _, wl := range workloads {
		for _, bd := range bounds {
			av, bv := a[wl.name][bd.Name], b[wl.name][bd.Name]
			if len(av) == 0 && len(bv) == 0 {
				continue
			}
			if len(av) < 5 || len(bv) < 5 {
				return fmt.Errorf("%s %s: %d and %d runs; each side needs at least 5", wl.name, bd.Name, len(av), len(bv))
			}
			a1, am, a3 := quartiles(av)
			b1, bm, b3 := quartiles(bv)
			fmt.Fprintf(w, "%-13s %-20s %-32s %-32s %+7.1f%% %s\n", wl.name, bd.Name,
				fmt.Sprintf("%.4g / %.4g / %.4g", a1, am, a3), fmt.Sprintf("%.4g / %.4g / %.4g", b1, bm, b3),
				100*(bm-am)/am, verdict(av, bv, bd))
			compared++
		}
	}
	if compared == 0 {
		return fmt.Errorf("%s and %s share no end-to-end runs", aPath, bPath)
	}
	if claim == "" {
		return nil
	}
	wl, name, ok := strings.Cut(claim, "/")
	i := slices.IndexFunc(bounds, func(bd bound) bool { return bd.Name == name })
	if !ok || i < 0 {
		return fmt.Errorf("claim %q: want workload/metric with an end-to-end metric", claim)
	}
	fmt.Fprintln(w, judgeClaim(a[wl][name], b[wl][name], bounds[i].Better, claim))
	return nil
}

// judgeClaim applies the pairs rule: the i-th runs of the two sides are
// a pair, run alternately. The claim holds when the change wins at least
// nine tenths of at least ten pairs (ties count for neither side) and
// the medians differ by more than the distance between the base's
// quartiles.
func judgeClaim(a, b []float64, better, claim string) string {
	pairs := min(len(a), len(b))
	if pairs < 10 {
		return fmt.Sprintf("claim %s: not judged, %d pairs (needs 10)", claim, pairs)
	}
	wins := 0
	for i := range pairs {
		if worse(a[i], b[i], better) < 0 {
			wins++
		}
	}
	a1, am, a3 := quartiles(a[:pairs])
	_, bm, _ := quartiles(b[:pairs])
	holds := 10*wins >= 9*pairs && worse(am, bm, better) < 0 && math.Abs(bm-am) > a3-a1
	status := "not met"
	if holds {
		status = "holds"
	}
	return fmt.Sprintf("claim %s: %s (change wins %d of %d pairs, medians %.4g -> %.4g, base quartile distance %.4g)",
		claim, status, wins, pairs, am, bm, a3-a1)
}
