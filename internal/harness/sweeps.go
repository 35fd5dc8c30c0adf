package harness

import (
	"fmt"
	"strings"

	"tsnoop/internal/spec"
	"tsnoop/internal/stats"
	"tsnoop/internal/system"
)

// SweepPoint is one (configuration, protocol) measurement in a sweep.
type SweepPoint struct {
	Label      string  `json:"label"`
	Protocol   string  `json:"protocol"`
	RuntimePS  int64   `json:"runtime_ps"`
	LinkBytes  int64   `json:"link_bytes"`
	ThreeHopPc float64 `json:"three_hop_pct"`
}

// PointSpec is one sweep measurement: a labelled, fully declarative
// experiment spec (sweeps override fields such as Nodes or BlockBytes
// per point — no mutation hooks).
type PointSpec struct {
	Label string
	Spec  spec.Spec
}

// Result renders the point spec's measured (best-of-seeds) run as this
// point's sweep measurement.
func (p PointSpec) Result(run *stats.Run) SweepPoint {
	return SweepPoint{
		Label:      p.Label,
		Protocol:   p.Spec.Protocol,
		RuntimePS:  int64(run.Runtime),
		LinkBytes:  run.Traffic.TotalLinkBytes(),
		ThreeHopPc: 100 * run.CacheToCacheFraction(),
	}
}

// Sweep is one named sensitivity sweep: the labelled points to measure,
// and a renderer that is a pure view over the measured points (the
// caller streams the points — for progress reporting or JSON output —
// and renders afterwards).
type Sweep struct {
	Kind   string
	Points []PointSpec
	render func([]SweepPoint) (string, error)
}

// Render renders measured points (in Points order) as the sweep's text
// report.
func (s *Sweep) Render(pts []SweepPoint) (string, error) {
	if len(pts) != len(s.Points) {
		return "", fmt.Errorf("harness: %s sweep rendered with %d of %d points", s.Kind, len(pts), len(s.Points))
	}
	return s.render(pts)
}

// Validate checks every point's spec, so a point whose machine cannot
// be built fails before any point runs.
func (s *Sweep) Validate() error {
	for _, p := range s.Points {
		if err := p.Spec.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// SweepKinds lists the measured sweep kinds NewSweep accepts (the
// Section 5 analytic envelope is RenderEnvelope, no simulation).
func SweepKinds() []string { return []string{"nodes", "blocksize", "ablation"} }

// NewSweep builds the named sweep over a benchmark (and, for the
// ablation sweep, a network).
func (e Experiment) NewSweep(kind, bench, network string) (*Sweep, error) {
	switch kind {
	case "nodes":
		return e.nodesSweep(bench), nil
	case "blocksize":
		return e.blockSizeSweep(bench), nil
	case "ablation":
		return e.ablationSweep(bench, network), nil
	default:
		return nil, fmt.Errorf("harness: unknown sweep %q (have %s)", kind, strings.Join(SweepKinds(), ", "))
	}
}

// nodesSweep measures how machine size shifts the snooping/directory
// bandwidth trade-off (Section 5: "at larger numbers of processors,
// directory protocols ... become increasingly attractive"): the TS/DirOpt
// traffic ratio per machine size on the butterfly.
func (e Experiment) nodesSweep(bench string) *Sweep {
	sizes := []int{4, 16, 64}
	var points []PointSpec
	for _, nodes := range sizes {
		label := fmt.Sprintf("n%d", nodes)
		ts := e.CellSpec(Cell{Benchmark: bench, Protocol: system.ProtoTSSnoop, Network: system.NetButterfly})
		ts.Nodes = nodes
		dir := ts
		dir.Protocol = system.ProtoDirOpt
		points = append(points, PointSpec{Label: label, Spec: ts}, PointSpec{Label: label, Spec: dir})
	}
	render := func(pts []SweepPoint) (string, error) {
		var b strings.Builder
		fmt.Fprintf(&b, "Machine-size sweep (%s, butterfly): TS-Snoop vs DirOpt\n", bench)
		fmt.Fprintf(&b, "%6s %16s %16s %14s\n", "nodes", "runtime-ratio", "traffic-ratio", "TS 3-hop(%)")
		for i, nodes := range sizes {
			ts, dir := pts[2*i], pts[2*i+1]
			fmt.Fprintf(&b, "%6d %16.3f %16.3f %13.0f%%\n",
				nodes, float64(dir.RuntimePS)/float64(ts.RuntimePS),
				float64(ts.LinkBytes)/float64(dir.LinkBytes), ts.ThreeHopPc)
		}
		return b.String(), nil
	}
	return &Sweep{Kind: "nodes", Points: points, render: render}
}

// blockSizeSweep measures the effect of doubling the block size (Section
// 5: the extra-bandwidth bound drops from 60% to 33% on the butterfly).
func (e Experiment) blockSizeSweep(bench string) *Sweep {
	blocks := []int{64, 128}
	var points []PointSpec
	for _, block := range blocks {
		label := fmt.Sprintf("b%d", block)
		ts := e.CellSpec(Cell{Benchmark: bench, Protocol: system.ProtoTSSnoop, Network: system.NetButterfly})
		ts.BlockBytes = block
		ts.CacheBytes = 4 << 20
		dir := ts
		dir.Protocol = system.ProtoDirOpt
		points = append(points, PointSpec{Label: label, Spec: ts}, PointSpec{Label: label, Spec: dir})
	}
	nodes := e.Nodes
	render := func(pts []SweepPoint) (string, error) {
		var b strings.Builder
		fmt.Fprintf(&b, "Block-size sweep (%s, butterfly): TS-Snoop traffic vs DirOpt\n", bench)
		fmt.Fprintf(&b, "%7s %16s %18s\n", "block", "traffic-ratio", "analytic bound")
		for i, block := range blocks {
			ts, dir := pts[2*i], pts[2*i+1]
			env, err := Envelope(system.NetButterfly, nodes, block)
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&b, "%7d %16.3f %17.0f%%\n",
				block, float64(ts.LinkBytes)/float64(dir.LinkBytes), env.ExtraBoundPc)
		}
		return b.String(), nil
	}
	return &Sweep{Kind: "blocksize", Points: points, render: render}
}

// ablationSweep compares the timestamp-snooping design knobs: initial
// slack, prefetch (optimization 1), early processing (optimization 2),
// tokens per port, and the Section 3/7 extensions. Each variant is the
// baseline spec with declarative options applied.
func (e Experiment) ablationSweep(bench, network string) *Sweep {
	knobs := []struct {
		label string
		opts  []spec.Option
	}{
		{"baseline (S=1, prefetch on, opt2 off)", nil},
		{"slack S=0", []spec.Option{spec.WithSlack(0)}},
		{"slack S=4", []spec.Option{spec.WithSlack(4)}},
		{"no prefetch (opt 1 off)", []spec.Option{spec.WithoutPrefetch()}},
		{"early processing (opt 2 on)", []spec.Option{spec.WithEarlyProcessing()}},
		{"tokens per port = 2", []spec.Option{spec.WithTokensPerPort(2)}},
		{"MOSI (Owned state)", []spec.Option{spec.WithMOSI()}},
		{"multicast snooping", []spec.Option{spec.WithMulticast()}},
		{"multicast, 32-entry predictor", []spec.Option{spec.WithMulticast(), spec.WithPredictorSize(32)}},
		{"multicast + MOSI", []spec.Option{spec.WithMulticast(), spec.WithMOSI()}},
		{"contention modelled", []spec.Option{spec.WithContention()}},
	}
	points := make([]PointSpec, len(knobs))
	for i, k := range knobs {
		s := e.CellSpec(Cell{Benchmark: bench, Protocol: system.ProtoTSSnoop, Network: network})
		for _, opt := range k.opts {
			opt(&s)
		}
		points[i] = PointSpec{Label: k.label, Spec: s}
	}
	render := func(pts []SweepPoint) (string, error) {
		var b strings.Builder
		fmt.Fprintf(&b, "TS-Snoop ablations (%s, %s)\n", bench, network)
		fmt.Fprintf(&b, "%-38s %14s %16s\n", "variant", "runtime", "link bytes")
		for _, pt := range pts {
			fmt.Fprintf(&b, "%-38s %14d %16d\n", pt.Label, pt.RuntimePS, pt.LinkBytes)
		}
		return b.String(), nil
	}
	return &Sweep{Kind: "ablation", Points: points, render: render}
}
