package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"tsnoop/internal/cluster"
	"tsnoop/internal/service"
	"tsnoop/internal/spec"
)

// fleet is an in-process tsnoop cluster: n service nodes, each with a
// disk store and one simulation worker, serving the HTTP API on
// loopback, plus the client the benchmark's callers share.
type fleet struct {
	root   string // holds every node's store
	addrs  []string
	nodes  []*node
	client *http.Client
}

// node is one cluster member.
type node struct {
	sv     *service.Service
	cl     *cluster.Cluster
	srv    *http.Server
	served chan struct{} // closed once Serve has returned
}

func newFleet(n int) (*fleet, error) {
	root, err := os.MkdirTemp("", "tsbench-")
	if err != nil {
		return nil, err
	}
	f := &fleet{root: root, client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}}
	lns := make([]net.Listener, n)
	for i := range lns {
		if lns[i], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			closeAll(lns)
			os.RemoveAll(root)
			return nil, err
		}
		f.addrs = append(f.addrs, lns[i].Addr().String())
	}
	if err := f.start(lns); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

func closeAll(lns []net.Listener) {
	for _, ln := range lns {
		if ln != nil {
			ln.Close()
		}
	}
}

// dir is node i's store directory.
func (f *fleet) dir(i int) string { return filepath.Join(f.root, fmt.Sprint(i)) }

// start brings up one node per listener, with cold LRUs over whatever
// the store directories hold.
func (f *fleet) start(lns []net.Listener) error {
	for i, ln := range lns {
		cl, err := cluster.New(cluster.Config{Self: f.addrs[i], Members: f.addrs})
		if err != nil {
			closeAll(lns[i:])
			return err
		}
		sv, err := service.New(service.Config{Dir: f.dir(i), Workers: 1, Cluster: cl})
		if err != nil {
			closeAll(lns[i:])
			return err
		}
		nd := &node{sv: sv, cl: cl, srv: &http.Server{Handler: service.NewHandler(sv)}, served: make(chan struct{})}
		go func() {
			defer close(nd.served)
			nd.srv.Serve(ln)
		}()
		f.nodes = append(f.nodes, nd)
	}
	return nil
}

// stop shuts every node down and waits for its server to return.
func (f *fleet) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, nd := range f.nodes {
		nd.srv.Shutdown(ctx)
		<-nd.served
		nd.sv.Drain(ctx)
	}
	f.nodes = nil
}

// restart stops every node and starts it again on the same address, so
// the ring is unchanged and every LRU is cold.
func (f *fleet) restart() error {
	f.stop()
	lns := make([]net.Listener, len(f.addrs))
	for i, addr := range f.addrs {
		var err error
		if lns[i], err = net.Listen("tcp", addr); err != nil {
			closeAll(lns)
			return err
		}
	}
	// Keep-alive connections to the old servers are dead; without this
	// the first request to a restarted node fails with EOF.
	f.client.CloseIdleConnections()
	return f.start(lns)
}

func (f *fleet) close() {
	f.stop()
	f.client.CloseIdleConnections()
	os.RemoveAll(f.root)
}

// owner is the index of the node whose shard holds s.
func (f *fleet) owner(s spec.Spec) int {
	addr, _ := f.nodes[0].cl.Route(s.Canonical())
	for i, a := range f.addrs {
		if a == addr {
			return i
		}
	}
	return 0
}

func (f *fleet) counters() counters {
	var c counters
	for _, nd := range f.nodes {
		st := nd.sv.StoreStats()
		c.storeHits += st.Hits
		c.storeMisses += st.Misses
		if cs := nd.sv.ClusterStats(); cs != nil {
			c.replicated += cs.Replicated
			for _, p := range cs.Peers {
				c.forwards += p.Forwards
				c.forwardErrs += p.Errors
			}
		}
	}
	return c
}

// post sends one spec to node i's POST /v1/runs and returns the
// response body and its X-Tsnoop-Cache disposition. Any status other
// than 200 is an error.
func (f *fleet) post(i int, specJSON []byte, sp spanCtx) (body []byte, disposition string, err error) {
	start := time.Now()
	resp, err := f.client.Post("http://"+f.addrs[i]+"/v1/runs", "application/json", bytes.NewReader(specJSON))
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	sp.child("http.roundtrip", start)
	start = time.Now()
	body, err = io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", err
	}
	sp.child("http.body", start)
	if resp.StatusCode != http.StatusOK {
		return nil, "", fmt.Errorf("node %d answered %s: %s", i, resp.Status, bytes.TrimSpace(body))
	}
	return bytes.TrimSuffix(body, []byte("\n")), resp.Header.Get("X-Tsnoop-Cache"), nil
}

// smallSpec is the service workloads' spec shape: a few milliseconds of
// simulation, so the service layers around it carry real weight.
func smallSpec(seed uint64) spec.Spec {
	return spec.New("barnes", spec.WithNodes(4), spec.WithWarmup(100), spec.WithQuota(200), spec.WithSeed(seed))
}

// remoteFrac is the share of requests a client sends to the node that
// does not own the key. Choosing the entry node relative to the key's
// owner fixes the forwarded share whatever ports the ring hashed.
const remoteFrac = 0.25

// entry picks the node a request for a key owned by node owner enters at.
func entry(owner int, rng *rand.Rand) int {
	if rng.Float64() < remoteFrac {
		return 1 - owner
	}
	return owner
}

// readKey is one stored experiment of service_read.
type readKey struct {
	in    input
	json  []byte
	owner int
}

// serviceRead reads back stored results from a 2-node cluster: 2
// clients, an 80/20 skew over the keys, every answer a cache hit.
type serviceRead struct {
	f    *fleet
	keys []readKey // hottest first
}

func setupServiceRead(cfg config) (instance, error) {
	n := 256
	if cfg.small {
		n = 8
	}
	f, err := newFleet(2)
	if err != nil {
		return nil, err
	}
	w := &serviceRead{f: f, keys: make([]readKey, n)}
	// The seed picks the key set and which keys are hot.
	perm := rand.New(rand.NewPCG(cfg.seed, 0x5eed)).Perm(n)
	for i, p := range perm {
		s := smallSpec((cfg.seed-1)*uint64(n) + uint64(p) + 1)
		w.keys[i] = readKey{in: input{spec: s}, json: s.JSON(), owner: f.owner(s)}
	}
	// Prefill through each key's owner, two callers at a time (one
	// simulation worker per node).
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for c := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < n; i += 2 {
				k := &w.keys[i]
				body, disp, err := f.post(k.owner, k.json, spanCtx{})
				if err == nil && disp != service.CacheMiss {
					err = fmt.Errorf("prefill answered %q, want %q", disp, service.CacheMiss)
				}
				if err != nil {
					errs[c] = err
					return
				}
				k.in.body = body
			}
		}()
	}
	wg.Wait()
	err = errors.Join(errs...)
	if err == nil {
		err = f.restart()
	}
	if err != nil {
		f.close()
		return nil, fmt.Errorf("service_read: set-up: %w", err)
	}
	if _, err := w.read(0, w.keys[0].owner, spanCtx{}); err != nil {
		f.close()
		return nil, fmt.Errorf("service_read: warm-up: %w", err)
	}
	return w, nil
}

func (w *serviceRead) clients() int       { return 2 }
func (w *serviceRead) simAccesses() int64 { return 0 }
func (w *serviceRead) counters() counters { return w.f.counters() }
func (w *serviceRead) verify() error      { return nil }
func (w *serviceRead) close()             { w.f.close() }

func (w *serviceRead) inputs() []input {
	in := make([]input, len(w.keys))
	for i, k := range w.keys {
		in[i] = k.in
	}
	return in
}

func (w *serviceRead) op(_ int, rng *rand.Rand, sp spanCtx) (time.Duration, error) {
	// 80% of reads go to the hottest 20% of the keys.
	hot := max(len(w.keys)/5, 1)
	i := rng.IntN(hot)
	if rng.Float64() >= 0.8 {
		i = hot + rng.IntN(len(w.keys)-hot)
	}
	return w.read(i, entry(w.keys[i].owner, rng), sp)
}

// read fetches key i through node at and checks the answer is a hit
// carrying the prefilled bytes.
func (w *serviceRead) read(i, at int, sp spanCtx) (time.Duration, error) {
	k := &w.keys[i]
	start := time.Now()
	body, disp, err := w.f.post(at, k.json, sp)
	lat := time.Since(start)
	if err != nil {
		return 0, err
	}
	if disp != service.CacheHit {
		return 0, fmt.Errorf("service_read: answered %q, want %q", disp, service.CacheHit)
	}
	if !bytes.Equal(body, k.in.body) {
		return 0, errors.New("service_read: body differs from the prefilled one")
	}
	return lat, nil
}

// writeCheckEvery is how often a service_write answer is re-simulated
// in process after the run.
const writeCheckEvery = 16

// serviceWrite submits fresh specs to a 2-node cluster with empty
// stores: 2 clients, every key distinct, every answer a cache miss.
type serviceWrite struct {
	f        *fleet
	base     uint64 // first spec seed
	accesses int64
	mu       sync.Mutex
	next     []uint64 // per client, the next candidate spec seed
	seen     []int    // per client, answers so far
	kept     []input  // every writeCheckEvery-th answer
}

func setupServiceWrite(cfg config) (instance, error) {
	f, err := newFleet(2)
	if err != nil {
		return nil, err
	}
	// Keys start far above service_read's, so no seed collides with them.
	w := &serviceWrite{f: f, base: cfg.seed << 32, next: make([]uint64, 2), seen: make([]int, 2)}
	warm := smallSpec(w.base)
	if w.accesses, err = simAccesses(warm); err != nil {
		f.close()
		return nil, err
	}
	if _, disp, err := f.post(f.owner(warm), warm.JSON(), spanCtx{}); err != nil || disp != service.CacheMiss {
		f.close()
		return nil, fmt.Errorf("service_write: warm-up: %q, %v", disp, err)
	}
	return w, nil
}

func (w *serviceWrite) clients() int       { return 2 }
func (w *serviceWrite) simAccesses() int64 { return w.accesses }
func (w *serviceWrite) counters() counters { return w.f.counters() }
func (w *serviceWrite) close()             { w.f.close() }

func (w *serviceWrite) inputs() []input {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]input(nil), w.kept...)
}

// nextSpec is client c's next fresh spec. Client c walks the seeds
// congruent to c mod 2 and keeps those node c owns, so each node's one
// simulation worker serves one client.
func (w *serviceWrite) nextSpec(c int) spec.Spec {
	for {
		w.next[c]++
		s := smallSpec(w.base + 2*w.next[c] + uint64(c))
		if w.f.owner(s) == c {
			return s
		}
	}
}

func (w *serviceWrite) op(c int, rng *rand.Rand, sp spanCtx) (time.Duration, error) {
	s := w.nextSpec(c)
	start := time.Now()
	body, disp, err := w.f.post(entry(c, rng), s.JSON(), sp)
	lat := time.Since(start)
	if err != nil {
		return 0, err
	}
	if disp != service.CacheMiss {
		return 0, fmt.Errorf("service_write: answered %q, want %q", disp, service.CacheMiss)
	}
	if w.seen[c]++; w.seen[c]%writeCheckEvery == 1 {
		w.mu.Lock()
		w.kept = append(w.kept, input{s, body})
		w.mu.Unlock()
	}
	return lat, nil
}

// verify re-simulates every kept answer in process.
func (w *serviceWrite) verify() error {
	for _, in := range w.inputs() {
		run, err := in.spec.Run()
		if err != nil {
			return err
		}
		got, err := json.Marshal(run)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, in.body) {
			return fmt.Errorf("service_write: answer for seed %d differs from an in-process run", in.spec.Seed)
		}
	}
	return nil
}
