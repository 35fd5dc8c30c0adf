// Command tsnoop is the unified command-line surface of the
// timestamp-snooping reproduction. Every subcommand parses the same
// experiment flag set — the canonical rendering of spec.Spec — so flags
// never drift between tools, and any invocation can be reproduced as a
// Spec value, a JSON object, or a flag list.
//
//	tsnoop run     -benchmark OLTP -protocol TS-Snoop -network butterfly
//	tsnoop grid    -figure 3 -network both -progress
//	tsnoop sweep   -sweep ablation -network torus
//	tsnoop tables  -table 2
//	tsnoop check   -seeds 20 -ops 200
//	tsnoop trace   record -benchmark OLTP -o oltp.tstrace
//	tsnoop serve   -addr localhost:8177 -cache ~/.cache/tsnoop
//	tsnoop submit  -addr http://localhost:8177 -benchmark OLTP
//
// run, grid, sweep, and tables -table 3 execute every spec through an
// in-process experiment service (internal/service), the same path serve
// exposes over HTTP. Grid and sweep subcommands stream their cells from
// it: -progress reports per-cell completion on stderr as results
// arrive, -json emits machine-readable results (one JSON object per
// cell), and an interrupt (Ctrl-C) cancels cleanly without losing the
// cells already printed. The service is memory-only unless -cache DIR
// names a content-addressed result store, which run, grid, and sweep
// then share with serve, so repeated figure reproduction skips every
// already-computed cell. Only instrumented single runs (run -metrics,
// -spans, -trace-out) execute directly.
//
// serve exposes the same experiments over HTTP, backed by the result
// store and a dedup job queue.
//
// serve -peers federates N nodes into one logical service: a static
// consistent-hash ring shards the result store across the member list,
// misses are forwarded to their owning peer (identical submissions
// entering anywhere singleflight onto one simulation), hot results
// replicate into the entry node's LRU, and an unreachable peer degrades
// to local compute. submit -retry N rides out 429/503 responses and
// restarts with exponential backoff, honoring Retry-After.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"slices"
	"strings"

	"tsnoop/internal/spec"
)

// execFn runs a parsed subcommand.
type execFn func(ctx context.Context, stdout, stderr io.Writer) error

// command is one tsnoop subcommand. setup registers its flags on fs and
// returns the closure that runs with the parsed values; raw commands
// (the trace dispatcher) receive their arguments verbatim instead.
type command struct {
	name    string
	aliases []string
	summary string
	// simulates marks commands that execute experiments and must expose
	// the full Spec flag set (asserted by TestSubcommandFlagParity).
	simulates bool
	// wantArgs permits positional arguments after the flags.
	wantArgs bool
	setup    func(fs *flag.FlagSet) execFn
	raw      func(ctx context.Context, args []string, stdout, stderr io.Writer) error
}

var commands = []*command{runCmd, gridCmd, sweepCmd, tablesCmd, checkCmd, traceCmd, serveCmd, submitCmd, versionCmd}

func findCommand(name string) *command {
	for _, c := range commands {
		if c.name == name || slices.Contains(c.aliases, name) {
			return c
		}
	}
	return nil
}

// exec parses args and runs the command.
func (c *command) exec(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	if c.raw != nil {
		return c.raw(ctx, args, stdout, stderr)
	}
	fs := flag.NewFlagSet("tsnoop "+c.name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	run := c.setup(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !c.wantArgs && fs.NArg() > 0 {
		return fmt.Errorf("%s: unexpected arguments %v", c.name, fs.Args())
	}
	return run(ctx, stdout, stderr)
}

func usage(w io.Writer) {
	fmt.Fprint(w, "usage: tsnoop <command> [flags]\n\ncommands:\n")
	for _, c := range commands {
		name := c.name
		if len(c.aliases) > 0 {
			name += " (" + strings.Join(c.aliases, ", ") + ")"
		}
		fmt.Fprintf(w, "  %-16s %s\n", name, c.summary)
	}
	fmt.Fprint(w, "\nrun \"tsnoop <command> -h\" for each command's flags\n")
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("tsnoop: ")
	if len(os.Args) < 2 || os.Args[1] == "help" || os.Args[1] == "-h" || os.Args[1] == "-help" || os.Args[1] == "--help" {
		usage(os.Stderr)
		os.Exit(2)
	}
	if os.Args[1] == "-version" || os.Args[1] == "--version" {
		os.Args[1] = "version"
	}
	c := findCommand(os.Args[1])
	if c == nil {
		log.Printf("unknown command %q", os.Args[1])
		usage(os.Stderr)
		os.Exit(2)
	}
	// Ctrl-C cancels the service's jobs cleanly: no new simulations
	// start, in-flight ones finish, and the error below names the cause.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := c.exec(ctx, os.Args[2:], os.Stdout, os.Stderr); err != nil {
		if err == flag.ErrHelp {
			os.Exit(2)
		}
		log.Fatal(err)
	}
}

// expandNetworks resolves a -network value that may be "both".
func expandNetworks(name string) ([]string, error) {
	if name == "both" || name == "" {
		return append([]string(nil), spec.Networks...), nil
	}
	if !slices.Contains(spec.Networks, name) {
		return nil, fmt.Errorf("unknown network %q (have both, %s)", name, strings.Join(spec.Networks, ", "))
	}
	return []string{name}, nil
}
