// Package tsnoop reproduces "Timestamp Snooping: An Approach for Extending
// SMPs" (Martin et al., ASPLOS 2000): a discrete-event simulation of MOESI
// snooping over logically ordered switched networks, two directory
// baselines, the paper's five commercial workloads as synthetic reference
// streams, and a harness that regenerates every table and figure in the
// paper's evaluation.
//
// The public surface is one declarative value: spec.Spec names everything
// an experiment needs — benchmark, protocol, network, machine size, seeds,
// phase quotas, and the design knobs — and is built with functional
// options (spec.New("OLTP", spec.WithProtocol(system.ProtoTSSnoop),
// spec.WithNodes(32))), validated in one place, and round-trippable to
// JSON and to a command-line flag set. Spec.Run executes it, fanning its
// perturbed seeds out through Spec.RunSeeds — the one implementation of
// the paper's minimum-over-seeds rule. The harness describes grids,
// sweeps, and tables as lists of specs, and the service runs them as Go
// iterators of cell results (service StreamGrid / StreamPoints, over
// the deterministic worker pool in internal/parallel), so callers get
// live progress, early cancellation via context.Context, and
// machine-readable results, while collecting a stream stays
// byte-identical at any worker count. Figure and table renderers are pure
// views over the streamed cells.
//
// Workload streams can be captured to compact trace files and replayed
// bit-exactly (internal/trace): a chunked, varint+delta-encoded format
// stores per-CPU streams of accesses; a Replayer is itself a
// workload.Generator, so "trace:<path>" works anywhere a benchmark name
// does — single runs, grids, sweeps, and tables run from trace files
// unchanged. Composable transforms (CPU fold, footprint scale, window,
// merge) rewrite traces into scenarios no generator produces.
//
// Experiments also run as a long-lived service (internal/service): a
// content-addressed result store keyed by the spec's canonical hash
// (spec.Canonical) serves any previously computed run byte-identically
// without simulation, a dedup job queue singleflights identical
// in-flight specs and fans distinct ones across the worker pool, and an
// HTTP API (tsnoop serve / tsnoop submit) streams grid cells and sweep
// points as NDJSON in presentation order. The run, grid, sweep, and
// tables subcommands execute through the same service in-process
// (memory-only, or over a store directory via -cache).
//
// The simulation core is allocation-free at steady state: the event
// kernel keeps inline 64-byte events, each a package-level function plus
// its arguments (no closures), in O(1) FIFO lanes for the fixed link,
// handoff and hit delays and in a hand-rolled 4-ary min-heap for the
// rest; the address network sends its link hops, token echoes and
// ordered handoffs through kernel batches (sim.Batch), so each run of
// same-instant network work is one kernel dispatch with no change to
// tie order; it recycles transaction copies through free
// lists and keeps switch and endpoint state in dense, reused slices;
// and the protocols pool their payload messages. Both protocol families
// embed one controller core (internal/protocol): each node's L2 and its
// hit queue, the one L2-hit decision, the outstanding-miss count, the
// report of a finished miss, the Oracle, and the point-to-point data
// fabric, so tssnoop and directory hold only their transactions, MSHR
// contents and home state. The network's Verify
// instrumentation lives behind the configuration and defaults off for
// experiment runs (re-enable with -verify / spec.WithVerify; results are
// identical either way).
// BENCH_5.json records the measured before/after numbers, and the
// bench-regression CI job guards them via scripts/benchguard; see the
// README's Performance section.
//
// Observability is deterministic and zero-overhead when off
// (internal/obs): a nil-guarded Probe — the same discipline as the
// Verify hook, one branch per site when disabled — enters a run once,
// on the kernel (sim.Kernel.SetProbe), and the address network, data
// fabric, controller core and processors read it from there when they
// are built. It records dense-slice
// counters and fixed log2-bucket histograms of kernel dispatch, link
// utilization, buffer/reorder/MSHR occupancy, and token-stall behavior,
// all keyed to simulated time, so the -metrics / spec.WithMetrics block
// in a run's JSON is byte-identical at any worker count. The knob
// follows the Verify pattern through spec.Normalize: enabling telemetry
// never changes a spec's canonical hash, and because the result store
// requires byte-identical payloads per key, instrumented runs bypass
// the store (the service strips the knob). The serve subcommand adds
// wall-clock-side observability that never touches the simulator: a
// Prometheus text exposition on GET /metrics, slog access logs, and
// per-job phase spans on GET /v1/jobs/{id}. See the README's
// "Observability" section; BENCH_7.json records the overhead envelope.
//
// Tracing extends both layers. Inside the simulator, -spans /
// spec.WithSpans decomposes every coherence transaction into lifecycle
// phase spans (miss, order wait, data-after-order, address flight,
// reorder and buffer dwell, data flight) recorded in simulated
// picoseconds through the same nil-guarded probe sites — zero
// allocations when on, one branch when off — and summarized as a
// latency_breakdown section that is byte-identical at any worker
// count; run -trace-out FILE exports the raw spans as Chrome
// trace-event JSON openable in Perfetto. Across the service, every
// request carries an X-Tsnoop-Trace ID minted at the cluster's entry
// node and propagated on shard forwards; each node records wall-clock
// phase spans (store_get, route, forward, queue_wait, simulate,
// store_write, replicate) into a bounded ring served on GET /v1/traces
// and GET /v1/traces/{id}, a forwarded request embeds the owner's
// spans via the X-Tsnoop-Trace-Spans response header, and submit
// -verbose prints the server-side spans for the request it just made.
// Neither knob moves a spec's canonical hash. See the README's
// "Tracing" section.
//
// Those invariants — the zero-alloc hot path, pool hygiene,
// byte-identical determinism, and the stability of the canonical spec
// hash — are enforced statically, not just by tests: internal/analysis
// hosts four purpose-built analyzers (allocfree, pooldiscipline,
// determinism, canonicalspec) on a self-contained, stdlib-only mirror
// of the golang.org/x/tools/go/analysis API, and the cmd/tsvet
// multichecker runs them together with go vet as a required CI job.
// Deliberate exceptions are declared in the code: //pool:owned marks an
// ownership hand-off, //determinism:unordered marks an
// order-insensitive map loop. See the README's "Static analysis"
// section.
//
// The command-line surface is the single cmd/tsnoop tool, whose
// subcommands (run, grid, sweep, tables, check, trace, serve, submit,
// version) all parse the same Spec flag set. Library use starts at
// internal/spec (one run), internal/harness (grids, sweeps, tables), and
// internal/service (executing them); runnable examples live under
// examples/ (examples/spec_api walks the Spec API end to end). See
// README.md for a quickstart.
package tsnoop
