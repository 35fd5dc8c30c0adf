package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tsnoop/internal/cluster"
	"tsnoop/internal/fault"
	"tsnoop/internal/harness"
	"tsnoop/internal/spec"
	"tsnoop/internal/stats"
)

// startChaosCluster boots n federated nodes like startCluster, but each
// node persists to its own disk directory (so planted corruption is
// actually read back) and runs hair-trigger circuit breakers (threshold
// 1, short cooldown) so a single dead-peer forward trips open and
// half-open probes happen within the test's lifetime.
func startChaosCluster(t *testing.T, n int, sim SimFunc, dirs []string) []*clusterNode {
	t.Helper()
	lns := make([]net.Listener, n)
	members := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		members[i] = ln.Addr().String()
	}
	nodes := make([]*clusterNode, n)
	for i := range nodes {
		c, err := cluster.New(cluster.Config{
			Self:             members[i],
			Members:          members,
			Client:           cluster.NewHTTPClient(cluster.DefaultTimeouts()),
			BreakerThreshold: 1,
			BreakerCooldown:  100 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		sv, err := New(Config{Dir: dirs[i], Workers: 2, Sim: sim, Cluster: c})
		if err != nil {
			t.Fatal(err)
		}
		srv := &http.Server{Handler: NewHandler(sv)}
		go srv.Serve(lns[i])
		sv.SetReady(true, "")
		nodes[i] = &clusterNode{sv: sv, c: c, addr: members[i], url: "http://" + members[i], srv: srv}
		t.Cleanup(func() { srv.Close() })
	}
	return nodes
}

// plantCorruptEntry writes one bad on-disk entry for key into a store
// directory, shaped per kind: "legacy" (headerless but plausible JSON —
// served as-is it would change client bytes, which is exactly what the
// byte-identity assertion below would catch), "truncated" (half an
// encoded entry), or "garbage" (random junk).
func plantCorruptEntry(t *testing.T, dir, key, kind string) {
	t.Helper()
	shard := filepath.Join(dir, key[:2])
	if err := os.MkdirAll(shard, 0o755); err != nil {
		t.Fatal(err)
	}
	var raw []byte
	switch kind {
	case "legacy":
		raw = []byte(`{"runtime_ps":1}`)
	case "truncated":
		enc := encodeEntry([]byte(`{"runtime_ps":123456789}`))
		raw = enc[:len(enc)/2]
	default:
		raw = []byte("\x00\xffnot a store entry")
	}
	if err := os.WriteFile(filepath.Join(shard, key[2:]+".json"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// The chaos acceptance bar for the whole hardening layer: a 3-node
// cluster under a seeded fault schedule — injected forward refusals,
// latency, a 5xx, a truncated peer answer, one seed panic — plus
// planted on-disk corruption and a peer killed mid-grid must stream
// grid and sweep NDJSON byte-identical to an unperturbed single-node
// service. Every degradation costs recomputation; none may change a
// client-visible byte or kill the process.
func TestClusterChaosByteIdentity(t *testing.T) {
	s := spec.New("barnes", spec.WithNodes(4), spec.WithWarmup(60), spec.WithQuota(120),
		spec.WithSeeds(2), spec.WithPerturbNS(3))
	sweepBody, _ := json.Marshal(map[string]any{"sweep": "blocksize", "spec": json.RawMessage(s.JSON())})

	// The single-node reference runs before the schedule is enabled: its
	// bytes are the ground truth chaos must reproduce.
	_, ref := newTestServer(t, "", nil)
	wantGrid := readBody(t, postJSON(t, ref.URL+"/v1/grids", s.JSON()))
	wantSweep := readBody(t, postJSON(t, ref.URL+"/v1/sweeps", sweepBody))

	// Plant three flavors of rot in node 0's store for real cell keys.
	// Node 0 is the entry node, and its local store is consulted for
	// every key (own shard or replicated-hit check) — with a cold LRU
	// each planted entry is read from disk, refused, and quarantined.
	dirs := []string{t.TempDir(), t.TempDir(), t.TempDir()}
	e := harness.FromSpec(s)
	cells := e.Cells(s.Network)
	if len(cells) < 3 {
		t.Fatalf("grid has %d cells, need >= 3 to plant corruption", len(cells))
	}
	for i, kind := range []string{"legacy", "truncated", "garbage"} {
		plantCorruptEntry(t, dirs[0], e.CellSpec(cells[i]).Canonical(), kind)
	}

	// The seeded schedule: two refused forwards, two slowed ones, one
	// injected 502, one truncated peer answer, one seed panic. All
	// decisions are pure functions of (seed, site, call index), so the
	// schedule is reproducible run to run.
	fs, err := fault.Parse("seed=42;queue.seed.panic=times:1;cluster.forward.refuse=times:2;" +
		"cluster.forward.latency=times:2@5ms;cluster.forward.5xx=times:1;cluster.forward.truncate=times:1")
	if err != nil {
		t.Fatal(err)
	}
	fault.Enable(fs)
	t.Cleanup(fault.Disable)

	// The first simulation anywhere in the fleet hard-kills node 2.
	var kill atomic.Value // func()
	var once sync.Once
	sim := func(ctx context.Context, sp spec.Spec) (*stats.Run, error) {
		if f, ok := kill.Load().(func()); ok {
			once.Do(f)
		}
		return sp.RunContext(ctx)
	}
	nodes := startChaosCluster(t, 3, SimFunc(sim), dirs)
	kill.Store(func() { nodes[2].srv.Close() })

	resp := postJSON(t, nodes[0].url+"/v1/grids", s.JSON())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("chaos grid: %s", resp.Status)
	}
	if got := readBody(t, resp); !bytes.Equal(got, wantGrid) {
		t.Fatalf("chaos grid differs from the unperturbed single node:\n got: %s\nwant: %s", got, wantGrid)
	}

	// The sweep enters via node 1 (node 2 is dead): keys owned by the
	// corpse degrade through breaker or forward error to local compute.
	sweep := postJSON(t, nodes[1].url+"/v1/sweeps", sweepBody)
	if sweep.StatusCode != http.StatusOK {
		t.Fatalf("chaos sweep: %s", sweep.Status)
	}
	if got := readBody(t, sweep); !bytes.Equal(got, wantSweep) {
		t.Fatalf("chaos sweep differs from the unperturbed single node:\n got: %s\nwant: %s", got, wantSweep)
	}

	// Every planted entry was quarantined (not served, not erased) and
	// counted; the shard files are gone, the quarantine copies exist.
	ss := nodes[0].sv.StoreStats()
	if ss.Corrupt != 3 {
		t.Errorf("node 0 corrupt counter = %d, want 3", ss.Corrupt)
	}
	q, err := os.ReadDir(filepath.Join(dirs[0], quarantineDir))
	if err != nil || len(q) != 3 {
		t.Errorf("quarantine holds %d entries (%v), want 3", len(q), err)
	}

	// The injected panic was recovered (and invisibly retried) exactly
	// once, somewhere in the fleet.
	var panics int64
	for _, nd := range nodes {
		panics += nd.sv.QueueStats().PanicsRecovered
	}
	if panics != 1 {
		t.Errorf("fleet recovered %d panics, want 1", panics)
	}

	// Dead-peer forwards tripped at least one breaker; every peer series
	// reports a legal state.
	var trips int64
	for _, nd := range nodes[:2] {
		for _, p := range nd.sv.ClusterStats().Peers {
			trips += p.BreakerTrips
			switch p.Breaker {
			case cluster.BreakerClosed, cluster.BreakerOpen, cluster.BreakerHalfOpen:
			default:
				t.Errorf("peer %s reports breaker state %q", p.Peer, p.Breaker)
			}
		}
	}
	if trips < 1 {
		t.Errorf("no breaker tripped under chaos (trips = %d)", trips)
	}

	// The schedule itself confirms the injections fired as scheduled.
	for _, st := range fs.Stats() {
		switch st.Site {
		case "queue.seed.panic":
			if st.Fired != 1 {
				t.Errorf("%s fired %d times, want 1", st.Site, st.Fired)
			}
		case "cluster.forward.refuse", "cluster.forward.latency":
			if st.Fired != 2 {
				t.Errorf("%s fired %d times, want 2", st.Site, st.Fired)
			}
		}
	}
}
