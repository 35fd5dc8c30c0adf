package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"time"

	"tsnoop/internal/harness"
	"tsnoop/internal/service"
	"tsnoop/internal/spec"
)

// config fixes one run: its inputs and how it is measured.
type config struct {
	seed uint64
	// small shrinks every workload's inputs for the smoke test.
	small bool
	// digests maps an output name to the sha256 it must hash to. Outputs
	// without an entry are checked for repeatability only.
	digests map[string]string

	seconds   float64       // measured time
	setups    int           // minimum set-ups per end-to-end run
	setupTime time.Duration // set up again until this much time is spent
	trace     bool          // traced run: per-layer metrics
	traceDir  string        // where a traced run writes its files
}

func (c config) duration() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// seedDigests are the expected outputs at seed 1 for the full-size
// canonical and paper_grid workloads.
//
//go:embed testdata/digests.json
var seedDigests []byte

// workloads in presentation order. The reasons for each are in
// BENCHMARK.json and bench/README.md.
var workloads = []struct {
	name  string
	setup func(config) (instance, error)
}{
	{"canonical", setupCanonical},
	{"paper_grid", setupPaperGrid},
	{"service_read", setupServiceRead},
	{"service_write", setupServiceWrite},
}

// input is one spec the layer probes replay, with the stats.Run JSON
// it answers to.
type input struct {
	spec spec.Spec
	body []byte
}

// checkDigest compares data's sha256 with the expected one for name,
// when there is one.
func checkDigest(digests map[string]string, name string, data []byte) error {
	want, ok := digests[name]
	if !ok {
		return nil
	}
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != want {
		return fmt.Errorf("%s: output sha256 is %s, want %s", name, got, want)
	}
	return nil
}

// simAccesses is the processor memory accesses s simulates over all
// its seeds, warm-up included.
func simAccesses(s spec.Spec) (int64, error) {
	cfg, _, err := s.Config()
	if err != nil {
		return 0, err
	}
	return int64(s.Nodes) * int64(cfg.WarmupPerCPU+cfg.MeasurePerCPU) * int64(s.Seeds), nil
}

// canonical is one spec.Default() run per operation, by one caller.
type canonical struct {
	cfg      config
	s        spec.Spec
	want     []byte // the warm-up run's JSON
	accesses int64
}

func setupCanonical(cfg config) (instance, error) {
	s := spec.Default()
	s.Seed = cfg.seed
	if cfg.small {
		s.QuotaScale, s.WarmupScale = 0.02, 0.02
	}
	acc, err := simAccesses(s)
	if err != nil {
		return nil, err
	}
	run, err := s.Run()
	if err != nil {
		return nil, err
	}
	want, err := json.Marshal(run)
	if err != nil {
		return nil, err
	}
	return &canonical{cfg: cfg, s: s, want: want, accesses: acc}, nil
}

func (w *canonical) clients() int       { return 1 }
func (w *canonical) simAccesses() int64 { return w.accesses }
func (w *canonical) inputs() []input    { return []input{{w.s, w.want}} }
func (w *canonical) counters() counters { return counters{} }
func (w *canonical) close()             {}

func (w *canonical) op(_ int, _ *rand.Rand, _ spanCtx) (time.Duration, error) {
	start := time.Now()
	run, err := w.s.Run()
	lat := time.Since(start)
	if err != nil {
		return 0, err
	}
	got, err := json.Marshal(run)
	if err != nil {
		return 0, err
	}
	if !bytes.Equal(got, w.want) {
		return 0, errors.New("canonical: run differs from the warm-up run")
	}
	return lat, nil
}

// verify checks the seed digest and that a run with tsnet's ordering
// assertions on gives the same bytes.
func (w *canonical) verify() error {
	if err := checkDigest(w.cfg.digests, "canonical", w.want); err != nil {
		return err
	}
	v := w.s
	v.Verify = true
	run, err := v.Run()
	if err != nil {
		return fmt.Errorf("canonical: verified run: %w", err)
	}
	got, err := json.Marshal(run)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, w.want) {
		return errors.New("canonical: verified run differs from the unverified one")
	}
	return nil
}

// gridScale is paper_grid's quota and warm-up scale: small enough that
// a 10-second run holds a dozen passes, large enough that every cell
// still misses, retries and orders like the full-size grid.
const gridScale = 0.05

// paperGrid streams the Figure 3/4 grid for both networks through a
// fresh memory-only service and renders both figures, per operation.
type paperGrid struct {
	cfg      config
	e        harness.Experiment
	want     []string // per network, the warm-up pass's figure text
	in       []input
	accesses int64
}

func setupPaperGrid(cfg config) (instance, error) {
	e := harness.Default()
	e.QuotaScale, e.WarmupScale = gridScale, gridScale
	if cfg.small {
		e.QuotaScale, e.WarmupScale = 0.005, 0.005
	}
	base := spec.Default()
	base.Seed = cfg.seed
	e.Base = &base
	w := &paperGrid{cfg: cfg, e: e}
	for _, network := range spec.Networks {
		for _, c := range e.Cells(network) {
			n, err := simAccesses(e.CellSpec(c))
			if err != nil {
				return nil, err
			}
			w.accesses += n
		}
	}
	texts, grids, err := w.pass(spanCtx{})
	if err != nil {
		return nil, err
	}
	w.want = texts
	for _, g := range grids {
		for _, c := range e.Cells(g.Network) {
			body, err := json.Marshal(g.Cells[c.Benchmark][c.Protocol].Best)
			if err != nil {
				return nil, err
			}
			w.in = append(w.in, input{e.CellSpec(c), body})
		}
	}
	return w, nil
}

func (w *paperGrid) clients() int       { return 1 }
func (w *paperGrid) simAccesses() int64 { return w.accesses }
func (w *paperGrid) inputs() []input    { return w.in }
func (w *paperGrid) counters() counters { return counters{} }
func (w *paperGrid) close()             {}

// pass runs one operation: a fresh service, both networks' grids
// streamed through it, both figures rendered.
func (w *paperGrid) pass(sp spanCtx) ([]string, []*harness.Grid, error) {
	start := time.Now()
	sv, err := service.New(service.Config{}) // one simulation worker per CPU
	if err != nil {
		return nil, nil, err
	}
	sp.child("service.New", start)
	var texts []string
	var grids []*harness.Grid
	for _, network := range spec.Networks {
		start = time.Now()
		g := harness.NewGrid(network, w.e.BenchmarkNames())
		for cr, err := range sv.StreamGrid(context.Background(), w.e, network) {
			if err != nil {
				return nil, nil, err
			}
			g.Add(cr)
		}
		sp.child("StreamGrid "+network, start)
		start = time.Now()
		texts = append(texts, g.Figure3()+g.Figure4())
		sp.child("render "+network, start)
		grids = append(grids, g)
	}
	return texts, grids, nil
}

func (w *paperGrid) op(_ int, _ *rand.Rand, sp spanCtx) (time.Duration, error) {
	start := time.Now()
	texts, _, err := w.pass(sp)
	lat := time.Since(start)
	if err != nil {
		return 0, err
	}
	for i, t := range texts {
		if t != w.want[i] {
			return 0, fmt.Errorf("paper_grid: %s figures differ from the warm-up pass", spec.Networks[i])
		}
	}
	return lat, nil
}

func (w *paperGrid) verify() error {
	for i, network := range spec.Networks {
		if err := checkDigest(w.cfg.digests, "paper_grid/"+network, []byte(w.want[i])); err != nil {
			return err
		}
	}
	return nil
}
