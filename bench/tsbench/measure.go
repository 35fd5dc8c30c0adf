package main

import (
	"fmt"
	"io"
	"math/rand/v2"
	"runtime"
	"slices"
	"sort"
	"sync"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit. BENCHMARK.json
// lists the same names and units; tsbench_test.go holds them equal.
type metricDef struct{ name, unit string }

// endToEnd are the host-time metrics a user of tsnoop waits on, measured
// with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"alloc_bytes_per_op", "B"},
	{"peak_rss_mb", "MB"},
}

// instance is one workload, set up and ready to measure.
type instance interface {
	// clients is the number of closed-loop clients.
	clients() int
	// op runs one operation for client c and returns its latency. The
	// answer is checked outside the timed span; a failed check is an
	// error. sp records child spans of the operation in a traced run.
	op(c int, rng *rand.Rand, sp spanCtx) (time.Duration, error)
	// verify runs the untimed end-of-run correctness checks.
	verify() error
	// simAccesses is the simulated processor memory accesses one
	// operation performs: nodes x (warmup + measure) x seeds.
	simAccesses() int64
	// inputs are the specs and result bodies the layer probes replay.
	inputs() []input
	// counters snapshots the store and cluster counters of the
	// workload's service nodes (zero when it has none).
	counters() counters
	close()
}

// counters are store and cluster counters summed over a workload's
// service nodes.
type counters struct {
	storeHits, storeMisses            int64
	forwards, forwardErrs, replicated int64
}

func (a counters) add(b counters) counters {
	return counters{a.storeHits + b.storeHits, a.storeMisses + b.storeMisses,
		a.forwards + b.forwards, a.forwardErrs + b.forwardErrs, a.replicated + b.replicated}
}

func (a counters) sub(b counters) counters {
	return a.add(counters{-b.storeHits, -b.storeMisses, -b.forwards, -b.forwardErrs, -b.replicated})
}

// measurement is what one closed-loop phase observed.
type measurement struct {
	lats      []time.Duration // successful operations, sorted
	attempted int
	failed    int
	firstErr  error
	wall      time.Duration
	cpu       time.Duration // user+sys of the whole process
	allocs    uint64        // bytes allocated
	gcs       uint32
	ctr       counters
}

// measure drives inst's clients in a closed loop until d has passed
// (each client completes at least one operation). Client c draws its
// choices from a generator seeded by (seed, c), so a seed fixes every
// client's input sequence.
func measure(inst instance, d time.Duration, seed uint64, tr *tracer) measurement {
	var m measurement
	var mu sync.Mutex
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0, ctr0 := cpuTime(), inst.counters()
	start := time.Now()
	var wg sync.WaitGroup
	for c := range inst.clients() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, uint64(c)))
			var lats []time.Duration
			attempted, failed := 0, 0
			var firstErr error
			for first := true; first || time.Since(start) < d; first = false {
				sp := tr.begin(c)
				lat, err := inst.op(c, rng, sp)
				attempted++
				if err != nil {
					failed++
					if firstErr == nil {
						firstErr = err
					}
					continue
				}
				sp.end("op")
				lats = append(lats, lat)
			}
			mu.Lock()
			m.lats = append(m.lats, lats...)
			m.attempted += attempted
			m.failed += failed
			if m.firstErr == nil {
				m.firstErr = firstErr
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	m.wall = time.Since(start)
	m.cpu = cpuTime() - cpu0
	m.ctr = inst.counters().sub(ctr0)
	runtime.ReadMemStats(&ms1)
	m.allocs = ms1.TotalAlloc - ms0.TotalAlloc
	m.gcs = ms1.NumGC - ms0.NumGC
	slices.Sort(m.lats)
	return m
}

// merge pools two phases' observations.
func (m measurement) merge(o measurement) measurement {
	m.lats = append(slices.Clip(m.lats), o.lats...)
	slices.Sort(m.lats)
	m.attempted += o.attempted
	m.failed += o.failed
	if m.firstErr == nil {
		m.firstErr = o.firstErr
	}
	m.wall += o.wall
	m.cpu += o.cpu
	m.allocs += o.allocs
	m.gcs += o.gcs
	m.ctr = m.ctr.add(o.ctr)
	return m
}

// ops is the number of successful operations.
func (m measurement) ops() float64 { return float64(len(m.lats)) }

// mean is the mean latency of the successful operations, 0 when there
// are none.
func (m measurement) mean() time.Duration {
	var sum time.Duration
	for _, l := range m.lats {
		sum += l
	}
	return sum / time.Duration(max(len(m.lats), 1))
}

// quantile returns the q-quantile of the successful latencies
// (nearest rank), 0 when there are none.
func (m measurement) quantile(q float64) time.Duration {
	if len(m.lats) == 0 {
		return 0
	}
	i := int(q*float64(len(m.lats)) + 0.5)
	return m.lats[min(max(i-1, 0), len(m.lats)-1)]
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// median of a float slice (which it sorts), 0 when empty.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// metric is one reported value, the shape the result line carries.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object tsbench prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// printMetrics writes one "workload metric value unit" line per metric
// in defs order.
func printMetrics(w io.Writer, workload string, defs []metricDef, ms map[string]metric) {
	for _, d := range defs {
		if v, ok := ms[d.name]; ok {
			fmt.Fprintf(w, "%-13s %-26s %14.6g %s\n", workload, d.name, v.Value, v.Unit)
		}
	}
}
