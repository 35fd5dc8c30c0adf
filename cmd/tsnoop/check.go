package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"slices"

	"tsnoop/internal/cache"
	"tsnoop/internal/coherence"
	"tsnoop/internal/parallel"
	"tsnoop/internal/protocol/directory"
	"tsnoop/internal/protocol/tssnoop"
	"tsnoop/internal/sim"
	"tsnoop/internal/spec"
	"tsnoop/internal/stats"
	"tsnoop/internal/system"
	"tsnoop/internal/workload"
)

// checkCmd is a randomized stress checker for the coherence protocols:
// it drives concurrent random access mixes through every protocol x
// network combination, with the runtime coherence oracle armed and
// response perturbation enabled, then verifies quiescence invariants
// (single-writer/multiple-reader, memory/directory agreement with cache
// states). Any violation aborts with a diagnostic.
//
// Runs fan out across -workers concurrent simulations; -protocol and
// -network restrict the combination matrix ("all"/"both" run the full
// matrix, the default).
var checkCmd = &command{
	name:      "check",
	summary:   "randomized coherence stress checker (SWMR + agreement)",
	simulates: true,
	setup: func(fs *flag.FlagSet) execFn {
		s := spec.Default()
		s.Seeds = 10
		s.PerturbNS = 3
		s.Protocol = "all"
		s.Network = "both"
		s.PredictorSize = 4 // small: exercise the audit-retry path
		s.Bind(fs)
		ops := fs.Int("ops", 150, "accesses per processor per run")
		blocks := fs.Int("blocks", 8, "hot-block pool size (smaller = more contention)")
		return func(ctx context.Context, stdout, stderr io.Writer) error {
			if s.Protocol != "all" && !slices.Contains(spec.Protocols, s.Protocol) {
				return fmt.Errorf("unknown protocol %q (have all, %v)", s.Protocol, spec.Protocols)
			}
			if s.Network != "both" && !slices.Contains(spec.Networks, s.Network) {
				return fmt.Errorf("unknown network %q (have both, %v)", s.Network, spec.Networks)
			}
			// -mosi / -multicast, when given explicitly, restrict the
			// combination matrix the way -protocol and -network do.
			mosiSet, mcastSet := false, false
			fs.Visit(func(f *flag.Flag) {
				switch f.Name {
				case "mosi":
					mosiSet = true
				case "multicast":
					mcastSet = true
				}
			})
			allCombos := []struct {
				protocol  string
				network   string
				mosi      bool
				multicast bool
			}{
				{system.ProtoTSSnoop, system.NetButterfly, false, false},
				{system.ProtoTSSnoop, system.NetTorus, false, false},
				{system.ProtoTSSnoop, system.NetButterfly, true, false},
				{system.ProtoTSSnoop, system.NetTorus, true, false},
				{system.ProtoTSSnoop, system.NetButterfly, false, true},
				{system.ProtoTSSnoop, system.NetTorus, true, true},
				{system.ProtoDirClassic, system.NetButterfly, false, false},
				{system.ProtoDirClassic, system.NetTorus, false, false},
				{system.ProtoDirOpt, system.NetButterfly, false, false},
				{system.ProtoDirOpt, system.NetTorus, false, false},
			}
			combos := allCombos[:0]
			for _, c := range allCombos {
				if (s.Protocol == "all" || c.protocol == s.Protocol) && (s.Network == "both" || c.network == s.Network) &&
					(!mosiSet || c.mosi == s.MOSI) && (!mcastSet || c.multicast == s.Multicast) {
					combos = append(combos, c)
				}
			}
			if len(combos) == 0 {
				return fmt.Errorf("no combinations match -protocol %s -network %s", s.Protocol, s.Network)
			}
			// Every stress run builds its own system, so the matrix fans out
			// across the worker pool; the first failure (in matrix order)
			// wins. Each job starts from the parsed spec — -nodes, -slack,
			// -tokens, and the other machine knobs apply to every combo —
			// with the matrix supplying the protocol/network/MOSI/multicast
			// coordinates and the seed.
			type job struct {
				name string
				run  func() error
			}
			var jobs []job
			for _, c := range combos {
				combo := s
				combo.Protocol, combo.Network = c.protocol, c.network
				combo.MOSI, combo.Multicast = c.mosi, c.multicast
				// Each combination is validated as the machine it builds:
				// its shape rules depend on the protocol and network.
				if err := combo.Validate(); err != nil {
					return err
				}
				for seed := 1; seed <= s.Seeds; seed++ {
					cs := combo
					cs.Seed = uint64(seed)
					jobs = append(jobs, job{
						name: fmt.Sprintf("%s/%s/mosi=%v/mcast=%v/seed=%d", c.protocol, c.network, c.mosi, c.multicast, seed),
						run: func() error {
							_, err := stress(cs, *ops, *blocks)
							return err
						},
					})
				}
			}
			for _, err := range parallel.Stream(ctx, s.Workers, len(jobs), func(i int) (struct{}, error) {
				if err := jobs[i].run(); err != nil {
					return struct{}{}, fmt.Errorf("%s: %w", jobs[i].name, err)
				}
				return struct{}{}, nil
			}) {
				if err != nil {
					return fmt.Errorf("FAIL %w", err)
				}
			}
			fmt.Fprintf(stdout, "check: %d stress runs passed (%d combos x %d seeds, %d ops/cpu, %d hot blocks)\n",
				len(jobs), len(combos), s.Seeds, *ops, *blocks)
			return nil
		}
	},
}

// stress drives one random access mix through a machine built from the
// spec, verifies quiescence afterwards and returns the run's counters.
// A run that stops making progress fails with system.ErrDeadlock rather
// than hanging.
func stress(cs spec.Spec, ops, blocks int) (run *stats.Run, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	gen := workload.Uniform(1024, 0.5, 10, cs.Nodes)
	cfg, buildErr := cs.ConfigFor(gen)
	if buildErr != nil {
		return nil, buildErr
	}
	s, buildErr := system.Build(cfg, gen)
	if buildErr != nil {
		return nil, buildErr
	}

	rng := sim.NewRand(cs.Seed * 7919)
	remaining := make([]int, cfg.Nodes)
	for i := range remaining {
		remaining[i] = ops
	}
	left := cfg.Nodes * ops
	waiting := 0
	var issue func(nd int)
	issue = func(nd int) {
		if remaining[nd] == 0 {
			return
		}
		remaining[nd]--
		waiting++
		b := coherence.Block(rng.Intn(blocks))
		op := coherence.Load
		if rng.Bool(0.5) {
			op = coherence.Store
		}
		s.Proto.Access(nd, op, b, func(coherence.AccessResult) {
			waiting--
			left--
			issue(nd)
		})
	}
	for nd := 0; nd < cfg.Nodes; nd++ {
		issue(nd)
	}
	if err := system.RunWatched(s.K, func() bool { return left > 0 },
		func() (int, int64) { return waiting, int64(cfg.Nodes*ops - left) }); err != nil {
		return nil, err
	}
	s.K.RunUntil(s.K.Now() + 5*sim.Microsecond) // drain writebacks
	if s.Proto.Pending() != 0 {
		return nil, fmt.Errorf("%d accesses still pending after drain", s.Proto.Pending())
	}
	err = verifyQuiescence(s, blocks, cs.MOSI)
	s.Release()
	return s.Run, err
}

// verifyQuiescence checks SWMR and controller agreement once traffic has
// drained.
func verifyQuiescence(s *system.System, blocks int, mosi bool) error {
	for b := coherence.Block(0); b < coherence.Block(blocks); b++ {
		var mCount, oCount, sCount int
		dirty := -1
		for nd := 0; nd < s.Cfg.Nodes; nd++ {
			switch s.Core.CacheState(nd, b) {
			case cache.Modified:
				mCount++
				dirty = nd
			case cache.Owned:
				oCount++
				dirty = nd
			case cache.Shared:
				sCount++
			}
		}
		if mCount+oCount > 1 {
			return fmt.Errorf("block %d: %d dirty copies", b, mCount+oCount)
		}
		if mCount == 1 && sCount+oCount > 0 {
			return fmt.Errorf("block %d: M coexists with %d S / %d O", b, sCount, oCount)
		}
		if !mosi && oCount > 0 {
			return fmt.Errorf("block %d: Owned copy under MSI", b)
		}
		if p, ok := s.Proto.(*tssnoop.Protocol); ok {
			owner := p.MemOwner(b)
			if mCount+oCount == 1 && owner != dirty {
				return fmt.Errorf("block %d: dirty at %d, memory owner %d", b, dirty, owner)
			}
			if mCount+oCount == 0 && owner != -1 {
				return fmt.Errorf("block %d: clean but memory owner %d", b, owner)
			}
		}
		if p, ok := s.Proto.(*directory.Protocol); ok {
			st, owner, _ := p.DirectoryState(b)
			if mCount == 1 && (st != "E" || owner != dirty) {
				return fmt.Errorf("block %d: M at %d but directory %s/%d", b, dirty, st, owner)
			}
			if mCount == 0 && st == "E" {
				return fmt.Errorf("block %d: directory E/%d with no M copy", b, owner)
			}
		}
	}
	return nil
}
