package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tsnoop/internal/cluster"
	"tsnoop/internal/harness"
	"tsnoop/internal/spec"
	"tsnoop/internal/stats"
)

// clusterNode is one in-process cluster member: a full Service behind a
// real TCP listener, so peers reach it exactly as production nodes do.
type clusterNode struct {
	sv   *Service
	c    *cluster.Cluster
	addr string
	url  string
	srv  *http.Server
}

// startCluster boots n federated nodes on loopback. Listeners are bound
// first so every member list names real addresses before any ring is
// built. sim is shared by all nodes (nil = real simulations).
func startCluster(t *testing.T, n int, sim SimFunc, maxCells int) []*clusterNode {
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
			Self:    members[i],
			Members: members,
			Client:  cluster.NewHTTPClient(cluster.DefaultTimeouts()),
		})
		if err != nil {
			t.Fatal(err)
		}
		sv, err := New(Config{Workers: 2, Sim: sim, Cluster: c, MaxCells: maxCells})
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

// ownerIndex resolves which node's shard owns a canonical key.
func ownerIndex(t *testing.T, nodes []*clusterNode, key string) int {
	t.Helper()
	owner, remote := nodes[0].c.Route(key)
	if !remote {
		return 0
	}
	for i, nd := range nodes {
		if nd.addr == owner {
			return i
		}
	}
	t.Fatalf("owner %s is not a cluster member", owner)
	return -1
}

// specOwnedBy searches seeds until the spec's canonical key lands on the
// wanted node's shard — how tests pin a key to a specific owner.
func specOwnedBy(t *testing.T, nodes []*clusterNode, want int) spec.Spec {
	t.Helper()
	for seed := uint64(1); seed <= 256; seed++ {
		s := spec.New("barnes", spec.WithNodes(4), spec.WithWarmup(60), spec.WithQuota(120),
			spec.WithSeed(seed))
		if ownerIndex(t, nodes, s.Canonical()) == want {
			return s
		}
	}
	t.Fatalf("no seed in 1..256 hashes onto node %d", want)
	return spec.Spec{}
}

func readBody(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// The tentpole equivalence check: a grid streamed through any cluster
// entry node is byte-identical to the single-node service, cold and
// warm, and the same holds for a sweep. Sharding changes where cells
// compute, never what the client reads.
func TestClusterGridByteIdenticalToSingleNode(t *testing.T) {
	s := spec.New("barnes", spec.WithNodes(4), spec.WithWarmup(60), spec.WithQuota(120),
		spec.WithSeeds(2), spec.WithPerturbNS(3))
	_, ref := newTestServer(t, "", nil)
	want := readBody(t, postJSON(t, ref.URL+"/v1/grids", s.JSON()))

	nodes := startCluster(t, 3, nil, 0)
	cold := postJSON(t, nodes[0].url+"/v1/grids", s.JSON())
	if cold.StatusCode != http.StatusOK {
		t.Fatalf("cold grid via node 0: %s", cold.Status)
	}
	if got := readBody(t, cold); !bytes.Equal(got, want) {
		t.Fatalf("cold cluster grid differs from single node:\n got: %s\nwant: %s", got, want)
	}

	// Warm pass through a different entry node: remote cells ride the
	// owners' stores, local cells this node's own.
	warm := readBody(t, postJSON(t, nodes[1].url+"/v1/grids", s.JSON()))
	if !bytes.Equal(warm, want) {
		t.Fatalf("warm cluster grid via node 1 differs:\n got: %s\nwant: %s", warm, want)
	}

	// Unless every cell hashed onto node 0's own shard, the cold pass
	// forwarded work to peers.
	cs := nodes[0].sv.ClusterStats()
	var forwards int64
	for _, p := range cs.Peers {
		forwards += p.Forwards
		if p.Errors != 0 {
			t.Errorf("healthy cluster recorded forward errors to %s: %d", p.Peer, p.Errors)
		}
	}
	e := harness.FromSpec(s)
	var remoteCells int
	for _, c := range e.Cells(s.Network) {
		if idx := ownerIndex(t, nodes, e.CellSpec(c).Canonical()); idx != 0 {
			remoteCells++
		}
	}
	if remoteCells > 0 && forwards == 0 {
		t.Errorf("%d cells owned by peers but node 0 recorded no forwards", remoteCells)
	}

	sweepBody, _ := json.Marshal(map[string]any{"sweep": "blocksize", "spec": json.RawMessage(s.JSON())})
	wantSweep := readBody(t, postJSON(t, ref.URL+"/v1/sweeps", sweepBody))
	gotSweep := readBody(t, postJSON(t, nodes[2].url+"/v1/sweeps", sweepBody))
	if !bytes.Equal(gotSweep, wantSweep) {
		t.Fatalf("cluster sweep via node 2 differs:\n got: %s\nwant: %s", gotSweep, wantSweep)
	}
}

// Identical specs submitted concurrently through every entry node
// singleflight onto ONE simulation: non-owners forward to the owner,
// whose queue dedups the in-flight spec globally.
func TestClusterSingleflightIsGlobal(t *testing.T) {
	var calls atomic.Int64
	gate := make(chan struct{})
	sim := func(ctx context.Context, s spec.Spec) (*stats.Run, error) {
		calls.Add(1)
		<-gate
		return &stats.Run{Runtime: 42}, nil
	}
	nodes := startCluster(t, 3, sim, 0)
	body := spec.New("barnes", spec.WithNodes(4), spec.WithQuota(50)).JSON()

	bodies := make([][]byte, len(nodes))
	var wg sync.WaitGroup
	wg.Add(len(nodes))
	for i, nd := range nodes {
		go func(i int, url string) {
			defer wg.Done()
			resp, err := http.Post(url+"/v1/runs", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("node %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			bodies[i], _ = io.ReadAll(resp.Body)
		}(i, nd.url)
	}
	time.Sleep(100 * time.Millisecond) // let every entry node's request reach the owner
	close(gate)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("%d simulations for one spec via %d entry nodes, want 1", got, len(nodes))
	}
	for i := range bodies {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("node %d returned different bytes:\n %s\nvs %s", i, bodies[i], bodies[0])
		}
	}
}

// An unreachable owner degrades to local compute: same bytes, a forward
// error on the counters, and the response is not marked remote. The
// degraded request probes the entry node's store exactly once: one
// miss on the counters, one store_get span on the trace.
func TestClusterOwnerDownDegradesToLocal(t *testing.T) {
	nodes := startCluster(t, 3, nil, 0)
	s := specOwnedBy(t, nodes, 2)

	_, ref := newTestServer(t, "", nil)
	want := readBody(t, postJSON(t, ref.URL+"/v1/runs", s.JSON()))

	nodes[2].srv.Close()
	misses := nodes[0].sv.StoreStats().Misses
	resp := postJSON(t, nodes[0].url+"/v1/runs", s.JSON())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run with dead owner: %s", resp.Status)
	}
	if got := resp.Header.Get("X-Tsnoop-Remote"); got != "" {
		t.Errorf("local fallback claims remote answer from %q", got)
	}
	if got := readBody(t, resp); !bytes.Equal(got, want) {
		t.Fatalf("local fallback differs from single node:\n got: %s\nwant: %s", got, want)
	}
	if got := nodes[0].sv.StoreStats().Misses - misses; got != 1 {
		t.Errorf("degraded request counted %d store misses, want 1", got)
	}
	var tr Trace
	getInto(t, nodes[0].url+"/v1/traces/"+resp.Header.Get("X-Tsnoop-Trace"), &tr)
	gets := 0
	for _, sp := range tr.Spans {
		if sp.Name == "store_get" {
			gets++
		}
	}
	if gets != 1 {
		t.Errorf("degraded request recorded %d store_get spans, want 1 (have %v)", gets, tr.Spans)
	}
	var errs int64
	for _, p := range nodes[0].sv.ClusterStats().Peers {
		if p.Peer == nodes[2].addr {
			errs = p.Errors
		}
	}
	if errs < 1 {
		t.Errorf("dead owner recorded %d forward errors, want >= 1", errs)
	}
}

// Killing a peer mid-grid never fails the stream and never changes a
// byte: the first simulation anywhere closes node 2, and every cell it
// owned falls back to local compute on the entry node.
func TestClusterGridSurvivesPeerKilledMidStream(t *testing.T) {
	var kill atomic.Value // func()
	var once sync.Once
	sim := func(ctx context.Context, s spec.Spec) (*stats.Run, error) {
		if f, ok := kill.Load().(func()); ok {
			once.Do(f)
		}
		return s.RunContext(ctx)
	}
	s := spec.New("barnes", spec.WithNodes(4), spec.WithWarmup(60), spec.WithQuota(120),
		spec.WithSeeds(2), spec.WithPerturbNS(3))
	_, ref := newTestServer(t, "", nil)
	want := readBody(t, postJSON(t, ref.URL+"/v1/grids", s.JSON()))

	nodes := startCluster(t, 3, sim, 0)
	kill.Store(func() { nodes[2].srv.Close() })
	resp := postJSON(t, nodes[0].url+"/v1/grids", s.JSON())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("grid with peer killed mid-stream: %s", resp.Status)
	}
	if got := readBody(t, resp); !bytes.Equal(got, want) {
		t.Fatalf("grid with killed peer differs from single node:\n got: %s\nwant: %s", got, want)
	}
}

// A forwarded result replicates into the entry node's LRU: the second
// identical request is a local hit — no second forward, no remote
// marker.
func TestClusterReplicationServesRepeatLocally(t *testing.T) {
	nodes := startCluster(t, 3, nil, 0)
	s := specOwnedBy(t, nodes, 1)

	first := postJSON(t, nodes[0].url+"/v1/runs", s.JSON())
	if got := first.Header.Get("X-Tsnoop-Remote"); got != nodes[1].addr {
		t.Fatalf("first request X-Tsnoop-Remote = %q, want %q", got, nodes[1].addr)
	}
	firstBody := readBody(t, first)

	second := postJSON(t, nodes[0].url+"/v1/runs", s.JSON())
	if got := second.Header.Get("X-Tsnoop-Cache"); got != CacheHit {
		t.Errorf("replicated repeat X-Tsnoop-Cache = %q, want %q", got, CacheHit)
	}
	if got := second.Header.Get("X-Tsnoop-Remote"); got != "" {
		t.Errorf("replicated repeat went remote to %q", got)
	}
	if got := readBody(t, second); !bytes.Equal(got, firstBody) {
		t.Fatalf("replicated repeat differs:\n got: %s\nwant: %s", got, firstBody)
	}

	cs := nodes[0].sv.ClusterStats()
	for _, p := range cs.Peers {
		if p.Peer == nodes[1].addr && p.Forwards != 1 {
			t.Errorf("forwards to owner = %d, want exactly 1", p.Forwards)
		}
	}
	if cs.Replicated != 1 {
		t.Errorf("replicated = %d, want 1", cs.Replicated)
	}
}

// A node already at its cell budget sheds new streams with 429 and a
// Retry-After hint instead of committing to them.
func TestClusterShedsPastCellBudget(t *testing.T) {
	gate := make(chan struct{})
	sim := func(ctx context.Context, s spec.Spec) (*stats.Run, error) {
		<-gate
		return &stats.Run{Runtime: 1}, nil
	}
	sv, err := New(Config{Workers: 2, Sim: sim, MaxCells: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(sv))
	t.Cleanup(srv.Close)
	body := spec.New("barnes", spec.WithNodes(4), spec.WithQuota(50)).JSON()

	done := make(chan []byte, 1)
	go func() {
		resp, err := http.Post(srv.URL+"/v1/grids", "application/json", bytes.NewReader(body))
		if err != nil {
			done <- nil
			return
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		done <- data
	}()
	for i := 0; sv.ShedStats().Inflight == 0; i++ {
		if i > 500 {
			t.Fatal("first grid never occupied the budget")
		}
		time.Sleep(2 * time.Millisecond)
	}

	shed := postJSON(t, srv.URL+"/v1/grids", body)
	if shed.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-budget grid: %s, want 429", shed.Status)
	}
	if ra, err := strconv.Atoi(shed.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q, want an integer >= 1", shed.Header.Get("Retry-After"))
	}
	sweepBody, _ := json.Marshal(map[string]any{"sweep": "blocksize"})
	if resp := postJSON(t, srv.URL+"/v1/sweeps", sweepBody); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-budget sweep: %s, want 429", resp.Status)
	}

	close(gate)
	if data := <-done; data == nil || len(bytes.TrimSpace(data)) == 0 {
		t.Fatal("admitted grid did not complete after the budget freed")
	}
	st := sv.ShedStats()
	if st.ShedTotal != 2 || st.Inflight != 0 {
		t.Fatalf("shed stats = %+v, want 2 shed and 0 inflight", st)
	}
}

// /readyz is the balancer gate, distinct from /healthz liveness: 503
// before serve marks the node ready, 200 while serving, 503 again
// during drain — with /healthz answering 200 the whole time.
func TestReadyzDistinctFromHealthz(t *testing.T) {
	sv, srv := newTestServer(t, "", func(ctx context.Context, s spec.Spec) (*stats.Run, error) {
		return &stats.Run{}, nil
	})
	check := func(wantCode int, wantReason string) {
		t.Helper()
		resp, err := http.Get(srv.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != wantCode {
			t.Fatalf("/readyz = %s, want %d", resp.Status, wantCode)
		}
		var doc map[string]string
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatal(err)
		}
		if doc["reason"] != wantReason {
			t.Fatalf("/readyz reason = %q, want %q", doc["reason"], wantReason)
		}
		hr, err := http.Get(srv.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		hr.Body.Close()
		if hr.StatusCode != http.StatusOK {
			t.Fatalf("/healthz = %s during readiness transition, want 200", hr.Status)
		}
	}
	check(http.StatusServiceUnavailable, "starting")
	sv.SetReady(true, "")
	check(http.StatusOK, "")
	sv.SetReady(false, "draining")
	check(http.StatusServiceUnavailable, "draining")
}
