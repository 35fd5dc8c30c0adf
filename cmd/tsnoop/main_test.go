package main

// The acceptance suite of the API redesign:
//
//   - every simulating subcommand exposes the full Spec flag set (no
//     flag drift between tools),
//   - subcommand output is byte-identical to the pre-redesign
//     standalone binaries (goldens under testdata/, captured from the
//     tsrun/tsfigures/tstables/tssweep binaries before their removal)
//     at any -workers value,
//   - -json output is byte-stable across worker counts,
//   - -progress streams per-cell completion lines on stderr.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"tsnoop/internal/spec"
	"tsnoop/internal/stats"
)

// execTsnoop runs a subcommand in-process and returns stdout/stderr.
func execTsnoop(t *testing.T, args ...string) (string, string) {
	t.Helper()
	c := findCommand(args[0])
	if c == nil {
		t.Fatalf("unknown subcommand %q", args[0])
	}
	var out, errb bytes.Buffer
	if err := c.exec(context.Background(), args[1:], &out, &errb); err != nil {
		t.Fatalf("tsnoop %s: %v\nstderr:\n%s", strings.Join(args, " "), err, errb.String())
	}
	return out.String(), errb.String()
}

func golden(t *testing.T, name string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// simulatingCommands lists every command (top-level and trace
// subcommand) that runs experiments.
func simulatingCommands() []*command {
	var cmds []*command
	for _, c := range append(append([]*command{}, commands...), traceCommands...) {
		if c.simulates {
			cmds = append(cmds, c)
		}
	}
	return cmds
}

// Every simulating subcommand must parse the complete Spec flag
// vocabulary: the fix for the historical drift where tssweep/tscheck
// lacked -seeds and the pprof tools each re-declared their own subset.
func TestSubcommandFlagParity(t *testing.T) {
	want := spec.FlagNames()
	if len(want) < 20 {
		t.Fatalf("suspiciously small spec flag set: %v", want)
	}
	cmds := simulatingCommands()
	if len(cmds) < 6 {
		t.Fatalf("expected at least 6 simulating subcommands, have %d", len(cmds))
	}
	for _, c := range cmds {
		fs := flag.NewFlagSet(c.name, flag.ContinueOnError)
		c.setup(fs)
		have := map[string]bool{}
		fs.VisitAll(func(f *flag.Flag) { have[f.Name] = true })
		for _, name := range want {
			if !have[name] {
				t.Errorf("tsnoop %s: missing spec flag -%s", c.name, name)
			}
		}
	}
}

func TestRunMatchesPreRedesignBinary(t *testing.T) {
	out, _ := execTsnoop(t, "run", "-benchmark", "barnes", "-protocol", "TS-Snoop",
		"-network", "butterfly", "-quota", "300", "-warmup", "150")
	if want := golden(t, "run_barnes.txt"); out != want {
		t.Errorf("run output differs from tsrun golden:\n got:\n%s\nwant:\n%s", out, want)
	}
	// Multi-seed, perturbed, at two worker counts.
	for _, workers := range []string{"1", "3"} {
		out, _ := execTsnoop(t, "run", "-benchmark", "DSS", "-protocol", "DirOpt",
			"-network", "torus", "-quota", "200", "-warmup", "100",
			"-seeds", "2", "-perturb-ns", "3", "-workers", workers)
		if want := golden(t, "run_dss_seeds.txt"); out != want {
			t.Errorf("workers=%s: run output differs from tsrun golden:\n got:\n%s\nwant:\n%s", workers, out, want)
		}
	}
}

func TestTablesMatchPreRedesignBinary(t *testing.T) {
	for _, workers := range []string{"1", "4"} {
		out, _ := execTsnoop(t, "tables", "-table", "2", "-workers", workers)
		if want := golden(t, "table2.txt"); out != want {
			t.Errorf("workers=%s: table 2 differs from tstables golden:\n got:\n%s\nwant:\n%s", workers, out, want)
		}
	}
	out, _ := execTsnoop(t, "tables", "-table", "3", "-scale", "0.1")
	if want := golden(t, "table3.txt"); out != want {
		t.Errorf("table 3 differs from tstables golden:\n got:\n%s\nwant:\n%s", out, want)
	}
}

func TestSweepsMatchPreRedesignBinary(t *testing.T) {
	out, _ := execTsnoop(t, "sweep", "-sweep", "envelope")
	if want := golden(t, "sweep_envelope.txt"); out != want {
		t.Errorf("envelope differs from tssweep golden:\n got:\n%s\nwant:\n%s", out, want)
	}
	if testing.Short() {
		t.Skip("measured sweeps")
	}
	for _, workers := range []string{"1", "4"} {
		out, _ := execTsnoop(t, "sweep", "-sweep", "blocksize", "-benchmark", "barnes",
			"-scale", "0.05", "-workers", workers)
		if want := golden(t, "sweep_blocksize.txt"); out != want {
			t.Errorf("workers=%s: blocksize differs from tssweep golden:\n got:\n%s\nwant:\n%s", workers, out, want)
		}
	}
	out, _ = execTsnoop(t, "sweep", "-sweep", "ablation", "-benchmark", "barnes",
		"-network", "torus", "-scale", "0.05")
	if want := golden(t, "sweep_ablation.txt"); out != want {
		t.Errorf("ablation differs from tssweep golden:\n got:\n%s\nwant:\n%s", out, want)
	}
}

func TestGridMatchesPreRedesignBinary(t *testing.T) {
	if testing.Short() {
		t.Skip("grid runs")
	}
	for _, workers := range []string{"1", "4"} {
		out, _ := execTsnoop(t, "grid", "-figure", "3", "-network", "butterfly",
			"-seeds", "2", "-scale", "0.05", "-workers", workers)
		if want := golden(t, "fig3_butterfly.txt"); out != want {
			t.Errorf("workers=%s: figure 3 differs from tsfigures golden:\n got:\n%s\nwant:\n%s", workers, out, want)
		}
	}
	// The figures alias is the same command.
	out, _ := execTsnoop(t, "figures", "-figure", "4", "-network", "torus",
		"-seeds", "1", "-scale", "0.05")
	if want := golden(t, "fig4_torus.txt"); out != want {
		t.Errorf("figure 4 differs from tsfigures golden:\n got:\n%s\nwant:\n%s", out, want)
	}
}

// tsnoop run -json must be byte-stable across -workers values (the
// engine collects seed results in order) and match the committed
// golden, pinning the JSON field names.
func TestRunJSONByteStableAcrossWorkers(t *testing.T) {
	want := golden(t, "run_json.golden")
	for _, workers := range []string{"1", "2", "4"} {
		out, _ := execTsnoop(t, "run", "-benchmark", "barnes", "-nodes", "4",
			"-quota", "150", "-warmup", "80", "-seeds", "3", "-perturb-ns", "3",
			"-json", "-workers", workers)
		if out != want {
			t.Errorf("workers=%s: JSON output not byte-stable:\n got:\n%s\nwant:\n%s", workers, out, want)
		}
	}
}

// -metrics telemetry is keyed to simulated time and event counts only,
// so the full cell JSON — metrics block included — must stay
// byte-identical across worker counts. The flag-off golden above pins
// that the block is absent when telemetry is off.
func TestRunMetricsJSONByteStableAcrossWorkers(t *testing.T) {
	var want string
	for i, workers := range []string{"1", "4"} {
		out, _ := execTsnoop(t, "run", "-benchmark", "barnes", "-nodes", "4",
			"-quota", "150", "-warmup", "80", "-seeds", "3", "-perturb-ns", "3",
			"-json", "-metrics", "-workers", workers)
		if i == 0 {
			want = out
			for _, field := range []string{`"metrics"`, "typed_dispatches", "link_utilization_ppm", "mshr_occupancy"} {
				if !strings.Contains(out, field) {
					t.Fatalf("-metrics JSON missing %s:\n%s", field, out)
				}
			}
			continue
		}
		if out != want {
			t.Errorf("workers=%s: metrics JSON not byte-stable:\n got:\n%s\nwant:\n%s", workers, out, want)
		}
	}
}

// The -metrics -spans snapshot and the -trace-out span stream of a
// TS-Snoop and a directory run. run_metrics_spans.golden and the digests
// were captured at commit a22188d, before the protocols shared one
// controller core, so they pin that the core moved no output byte.
// Since then only kernel keys moved, which count real kernel events:
// the TS-Snoop run's typed_dispatches, heap_peak and schedule_delay_ps
// when the address network began batching same-instant work, and the
// DirClassic run's typed_dispatches and schedule_delay_ps when message
// deliveries, ready-time sends and L2-hit completions joined batches, and
// the TS-Snoop run's typed_dispatches and schedule_delay_ps when every
// processor's think periods became items of one batch, so same-instant
// think items of different processors join.
// Each trace file is ~0.6 MB, so only its SHA-256 is committed.
func TestRunMetricsSpansGolden(t *testing.T) {
	base := []string{"run", "-benchmark", "barnes", "-nodes", "4", "-warmup", "100", "-quota", "200"}
	instrumented := slices.Concat(base, []string{"-metrics", "-spans", "-json"})
	ts, _ := execTsnoop(t, slices.Concat(instrumented, []string{"-mosi", "-multicast"})...)
	dir, _ := execTsnoop(t, slices.Concat(instrumented, []string{"-protocol", "DirClassic", "-perturb-ns", "3"})...)
	if got, want := ts+dir, golden(t, "run_metrics_spans.golden"); got != want {
		t.Errorf("-metrics -spans output differs from golden:\n got:\n%s\nwant:\n%s", got, want)
	}

	for _, c := range []struct{ protocol, sha256 string }{
		{"TS-Snoop", "eb742dd2038b8e82a4e9a14cbfa08bc0fb97fd01f025b5d4770275be21ae49c6"},
		{"DirOpt", "53f82b164912790e0a9488f1bab18566c4050453d34754a3092ce53033b67aba"},
	} {
		path := filepath.Join(t.TempDir(), "trace.json")
		execTsnoop(t, slices.Concat(base, []string{"-protocol", c.protocol, "-trace-out", path})...)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if sum := sha256.Sum256(data); hex.EncodeToString(sum[:]) != c.sha256 {
			t.Errorf("%s: -trace-out digest %x, want %s", c.protocol, sum, c.sha256)
		}
	}
}

// Text mode renders the metrics block after the run summary, and
// -metrics with -cache bypasses the result store (the store's contract
// is byte-identical payloads per canonical key; telemetry would break
// it) with a note instead of a failure.
func TestRunMetricsTextAndCacheBypass(t *testing.T) {
	out, _ := execTsnoop(t, "run", "-benchmark", "barnes", "-nodes", "4",
		"-quota", "150", "-warmup", "80", "-metrics")
	if !strings.Contains(out, "metrics:") || !strings.Contains(out, "token rounds") {
		t.Errorf("text mode missing metrics block:\n%s", out)
	}
	_, errOut := execTsnoop(t, "run", "-benchmark", "barnes", "-nodes", "4",
		"-quota", "150", "-warmup", "80", "-metrics", "-cache", t.TempDir())
	if !strings.Contains(errOut, "bypasses the result store") {
		t.Errorf("expected a store-bypass note on stderr, got:\n%s", errOut)
	}
}

func TestCheckSmoke(t *testing.T) {
	out, _ := execTsnoop(t, "check", "-seeds", "2", "-ops", "60", "-workers", "1")
	if !strings.Contains(out, "20 stress runs passed (10 combos x 2 seeds") {
		t.Fatalf("check output unexpected:\n%s", out)
	}
}

// check with 4 KiB caches and 160 hot blocks reaches the writeback
// path, which the default 8 hot blocks never do: TS-Snoop evicts
// Modified blocks. Without multicast every ordered request is a miss's
// GETS or GETX or a dirty victim's PUTX, so the requests beyond the
// misses count the writebacks.
func TestCheckWritebackCoverage(t *testing.T) {
	out, _ := execTsnoop(t, "check", "-seeds", "2", "-ops", "200", "-cache-bytes", "4096", "-blocks", "160")
	if !strings.Contains(out, "20 stress runs passed (10 combos x 2 seeds, 200 ops/cpu, 160 hot blocks)") {
		t.Fatalf("check output unexpected:\n%s", out)
	}
	cs := spec.Default()
	cs.Protocol, cs.Network = "TS-Snoop", "butterfly"
	cs.PerturbNS, cs.PredictorSize, cs.CacheBytes = 3, 4, 4096
	run, err := stress(cs, 200, 160)
	if err != nil {
		t.Fatal(err)
	}
	if wb := run.Traffic.Messages(stats.ClassRequest) - run.TotalMisses(); wb <= 0 {
		t.Fatalf("%d requests for %d misses: no Modified block was evicted",
			run.Traffic.Messages(stats.ClassRequest), run.TotalMisses())
	}
}

// The streaming iterator drives -progress: one stderr line per
// completed cell, in presentation order — something the collect-only
// API could not surface mid-run.
func TestGridProgressStreams(t *testing.T) {
	out, errOut := execTsnoop(t, "grid", "-figure", "3", "-network", "butterfly",
		"-benchmark", "barnes", "-seeds", "1", "-scale", "0.05", "-warmup-scale", "0.05",
		"-progress")
	lines := strings.Split(strings.TrimSpace(errOut), "\n")
	if len(lines) != 3 {
		t.Fatalf("want 3 progress lines (one per protocol), got %d:\n%s", len(lines), errOut)
	}
	for i, proto := range []string{"TS-Snoop", "DirClassic", "DirOpt"} {
		if !strings.Contains(lines[i], "barnes/"+proto) {
			t.Errorf("progress line %d = %q, want barnes/%s", i, lines[i], proto)
		}
	}
	if !strings.Contains(out, "barnes") {
		t.Errorf("figure rendering missing benchmark:\n%s", out)
	}
}

// The same stream feeds -json: one JSON object per cell.
func TestGridJSONStreams(t *testing.T) {
	out, _ := execTsnoop(t, "grid", "-network", "torus", "-benchmark", "barnes",
		"-seeds", "1", "-scale", "0.05", "-warmup-scale", "0.05", "-json")
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("want 3 JSON cells, got %d:\n%s", len(lines), out)
	}
	for _, line := range lines {
		if !strings.HasPrefix(line, `{"benchmark":"barnes","protocol":"`) || !strings.Contains(line, `"runtime_ps"`) {
			t.Errorf("unexpected JSON cell: %s", line)
		}
	}
}

// The parity test guarantees the flags exist; these guarantee they are
// effective — the Spec flags each subcommand exposes must actually
// steer it (the redesign's fix for parsed-but-ignored flag drift).
func TestSpecFlagsAreEffective(t *testing.T) {
	// grid -benchmark restricts the grid; -protocol restricts it further
	// (JSON-only, since the figures need all three protocol columns).
	out, _ := execTsnoop(t, "grid", "-network", "torus", "-benchmark", "barnes",
		"-protocol", "DirOpt", "-seeds", "1", "-scale", "0.05", "-warmup-scale", "0.05", "-json")
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 1 || !strings.Contains(lines[0], `"protocol":"DirOpt"`) {
		t.Errorf("grid -protocol did not restrict the grid:\n%s", out)
	}
	var errb bytes.Buffer
	if err := findCommand("grid").exec(context.Background(),
		[]string{"-protocol", "DirOpt", "-benchmark", "barnes"}, &bytes.Buffer{}, &errb); err == nil {
		t.Error("grid -protocol without -json accepted (figures need all protocols)")
	}

	// check validates the machine knobs it binds.
	for _, args := range [][]string{
		{"-seeds", "0", "-ops", "10"},
		{"-workers", "-2", "-ops", "10"},
		{"-nodes", "0", "-ops", "10"},
	} {
		if err := findCommand("check").exec(context.Background(), args, &bytes.Buffer{}, &bytes.Buffer{}); err == nil {
			t.Errorf("check %v accepted", args)
		}
	}
	// check -mosi restricts the combination matrix.
	out, _ = execTsnoop(t, "check", "-seeds", "1", "-ops", "30", "-mosi", "-protocol", "TS-Snoop")
	if !strings.Contains(out, "3 combos x 1 seeds") {
		t.Errorf("check -mosi did not restrict the matrix:\n%s", out)
	}

	// sweep honors the seed fan-out: -seeds N means best-of-N per point.
	out, _ = execTsnoop(t, "sweep", "-sweep", "blocksize", "-benchmark", "barnes",
		"-scale", "0.03", "-warmup-scale", "0.05", "-seeds", "2", "-perturb-ns", "3")
	if !strings.Contains(out, "Block-size sweep") {
		t.Errorf("seeded sweep malformed:\n%s", out)
	}

	// run honors -seed: different bases give different streams.
	a, _ := execTsnoop(t, "run", "-benchmark", "barnes", "-nodes", "4", "-quota", "120", "-warmup", "60")
	b, _ := execTsnoop(t, "run", "-benchmark", "barnes", "-nodes", "4", "-quota", "120", "-warmup", "60", "-seed", "9")
	if a == b {
		t.Error("run -seed had no effect")
	}
}

func TestSubcommandErrorsAreOneLine(t *testing.T) {
	dir := t.TempDir()
	cases := [][]string{
		{"run", "-benchmark", "tpc-w"},
		{"run", "-protocol", "MOESI"},
		{"run", "-network", "hypercube"},
		{"grid", "-figure", "9"},
		// Grids and sweeps run through the service, which strips
		// telemetry: instrumenting them is an error, with or without
		// -cache, pointing at run -metrics.
		{"grid", "-benchmark", "barnes", "-metrics"},
		{"grid", "-benchmark", "barnes", "-spans", "-cache", dir},
		{"sweep", "-sweep", "blocksize", "-metrics"},
		{"sweep", "-sweep", "nodes", "-spans", "-cache", dir},
		{"sweep", "-sweep", "bogus"},
		{"tables", "-table", "7"},
		{"check", "-protocol", "MOESI"},
		{"check", "-seeds", "0"},
	}
	for _, args := range cases {
		c := findCommand(args[0])
		var out, errb bytes.Buffer
		err := c.exec(context.Background(), args[1:], &out, &errb)
		if err == nil {
			t.Errorf("tsnoop %s: invalid flags accepted", strings.Join(args, " "))
			continue
		}
		if strings.Contains(err.Error(), "\n") {
			t.Errorf("tsnoop %s: error not one line: %q", strings.Join(args, " "), err)
		}
		if (slices.Contains(args, "-metrics") || slices.Contains(args, "-spans")) && !strings.Contains(err.Error(), "run -metrics") {
			t.Errorf("tsnoop %s: error %q does not point at run -metrics", strings.Join(args, " "), err)
		}
	}
}
