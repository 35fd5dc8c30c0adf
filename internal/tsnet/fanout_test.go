package tsnet

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"math/bits"
	"testing"

	"tsnoop/internal/sim"
	"tsnoop/internal/stats"
	"tsnoop/internal/topology"
)

// fanOutDigests are the sha256 digests of the arrival and processing logs
// of fanOutRun, captured on commit 3140631, where every switch output and
// every broadcast branch was its own kernel event. A switch fan-out is now
// one event per distinct link latency; these pin that it still moves every
// copy and token exactly as before.
var fanOutDigests = map[string][2]string{
	"butterfly-r4/k=1/S=0/contention=false": {
		"c7f4d8fe1147bf055e59b42ca8b3105d41d18a8f5089f840baf312971ce2bd2d",
		"eae81823fc89e36c8ff188a9d1eb27b817966a062e50d68f1f40912da08b8ddc",
	},
	"butterfly-r4/k=1/S=0/contention=true": {
		"1792d5c19027883eaa854a05296ae474abefc5c1f51b1925f22e451971a65ccd",
		"8578b832fa45ccf71304f8f1618c051cb8905be9f24ba153162b2f6905dadbf7",
	},
	"butterfly-r4/k=1/S=1/contention=false": {
		"407c0c982e13e4697414392d86a0be294823389b250085dde6a41905c6f72b20",
		"7198d1243e0e6e6c9466bfa8f803d13e59e8da639fc499d23b04b627d899f579",
	},
	"butterfly-r4/k=1/S=1/contention=true": {
		"3f16bf02c2ec601ed9d905582a5e20ba81c611bde4a6ab6e9410ce16f8e029c1",
		"34093df072e66fe6745ac64e218b29f8f122dc791e25aac10f0e0b6cd633deec",
	},
	"butterfly-r4/k=1/S=3/contention=false": {
		"6ef52d3d15e4dc6e7254ba6a7760ffbd4dc85e62e2de257aa18e44fd72f7b1cf",
		"b8f574f4b9159bf022b0100316d57800a02244b62f30f589f0f13846e6795146",
	},
	"butterfly-r4/k=1/S=3/contention=true": {
		"1dc1f80b4182c68a685382ad6bc329dc179a232b727624187b2c69b8568a00ba",
		"b8f574f4b9159bf022b0100316d57800a02244b62f30f589f0f13846e6795146",
	},
	"butterfly-r4/k=2/S=0/contention=false": {
		"72db6445acb5c213f09ea1752d336c72bd3b63e926920033199a688e749d34e9",
		"93ee6c189305ad79517b3253b0575cba72d10fc95383d846f3739ef7811eba33",
	},
	"butterfly-r4/k=2/S=0/contention=true": {
		"eb490fc17fe1b9579842870e25345bedacc9de54e1168b047bf520a1f5b8117f",
		"3f91ef213e9f3781567a4309d7d68869abdb04714eab2efc1ed25862110d4561",
	},
	"butterfly-r4/k=2/S=1/contention=false": {
		"a1c27737c8fdae2120606d909ffbaaab7bb1b4863749dc3247a05ced6f029a38",
		"4a9fd228b624d872935a996ead4f4bc5c4ae0bae309fa3fe06e19492b55581c7",
	},
	"butterfly-r4/k=2/S=1/contention=true": {
		"a5daeb52c468ca940cb593b158286fbac091dc76eb319913a5a1152df437d4ed",
		"581c751b3c12ab0ea1e3541eeefba6396b55ca4db8affc6b03863f7900408441",
	},
	"butterfly-r4/k=2/S=3/contention=false": {
		"a59d7f95622694229464739174d6e34d90d429ec5972f6692e019079db15be44",
		"a06bc72e87d634c6cb91d2b787911e4c6adf267613d27e11c8a58ba628b45f25",
	},
	"butterfly-r4/k=2/S=3/contention=true": {
		"f67b176682d632964eecd61e8fa7e59892992968d6f8cc2fc55413bd2f4d59c4",
		"fdd358d010aab14799e366a94314ab126c7b1727c78be402887e68d94d2802d9",
	},
	"butterfly-r4/k=3/S=0/contention=false": {
		"b8cfa4d3f3e952535cd6381c4df614016c46e5fb200e1403d060f7f3aed966c0",
		"a60c9085a83ab8b2fcee1196f9a2debc4336e1eaa8fc1bf859ad60a9d8a17f81",
	},
	"butterfly-r4/k=3/S=0/contention=true": {
		"29078fcdde0eb926495472472e876db9c6b9b75e817e1f8377d47839aa34142c",
		"58deedcbecf2f5fd97e8c66e6decc4bce0c469814a88dd0aaabd21550ddee2f8",
	},
	"butterfly-r4/k=3/S=1/contention=false": {
		"a6ad28dc9ad0da55fc6ce9b9a923f477adcc972df98d1e5ad147e0e2bd0f436c",
		"1cd12a635c595fc30a9cbc94dfff92652c9e5ba5ffd3f1520ec5bb9cda8ea8de",
	},
	"butterfly-r4/k=3/S=1/contention=true": {
		"4199323aa978adc75aaa4461fc09423f0cf9c30d361a2e22a795ee3d3f1498d0",
		"94b2ed52620f1abd6003d027fd4a396cae0bddb69d7bfdcb6eb38eff84d4124f",
	},
	"butterfly-r4/k=3/S=3/contention=false": {
		"32de26095ce2df4bea6f78cbb9d037915ec47f805ea05d3d0e34ad011ae0123a",
		"6b09bc30783d764d6bd024b93c36ed9f89782e59a5b9d553cf0dc01a5b20acb2",
	},
	"butterfly-r4/k=3/S=3/contention=true": {
		"3e4986b54e653f24ff63cd1853661bc5d23ba3e83ae07c9152bbb1c68527f976",
		"5e33aded038816a7f97aecbc01ff0408f078b64afab9e8a63613f15198093454",
	},
	"torus-4x4/k=1/S=0/contention=false": {
		"9d4ceb00c3ab00039b1bea27f40d90b1e975aa59669b55c1981eb36a245222f8",
		"a25de8aced669de94e97c687d527c69b6d6882136dbd526252768c4e0826e230",
	},
	"torus-4x4/k=1/S=0/contention=true": {
		"ad986215f50d14633ce6b3ef0684783257c5350d174fc1983ee942a1df9edfb8",
		"141fc8e677fbeeb8fa46829f820ea6b53d70bdcdd97360265306fdd3b6abb5ab",
	},
	"torus-4x4/k=1/S=1/contention=false": {
		"b7e4f0c7285b6c130fe5b5173833fa133e4d189f571d35df45e89c8b86b9f191",
		"c770f9ef2960f9601109f9e45f6b2a36479b2805cbc8a1a71dce1d4ad2640cef",
	},
	"torus-4x4/k=1/S=1/contention=true": {
		"83f001370c127ef4c273a68caf1ab2444ffa7e06facc2a13003e9defa9f50d05",
		"c770f9ef2960f9601109f9e45f6b2a36479b2805cbc8a1a71dce1d4ad2640cef",
	},
	"torus-4x4/k=1/S=3/contention=false": {
		"13a6244c518c605af2ae5328d4efec23c90ba452b76d0a3a4d72d9dc00cee05c",
		"0568fe1177c2b26af0fd71ef1a0a224139edb63b6254af168c98d812307434f2",
	},
	"torus-4x4/k=1/S=3/contention=true": {
		"5cdf4b78a469b9e0c91ec0dd2e2dfe808b234160286e62a29bc250c59f4a4d36",
		"0568fe1177c2b26af0fd71ef1a0a224139edb63b6254af168c98d812307434f2",
	},
	"torus-4x4/k=2/S=0/contention=false": {
		"3fdec0bb9c237d8f67f01267faf7c1098f2e6e39283acaed4f8361289e4f44c8",
		"d1bb253d622069d82df6ba68edaca19e36d38f6704bd46e24d2027972666ec3f",
	},
	"torus-4x4/k=2/S=0/contention=true": {
		"cda18ccfa82c95c03080780299ac204a6ac03f3279cd75fce2a08f21a5eb13c2",
		"baec438deee2c1795a49dc331d7aa12ac761a8655d0213da69e760bf1708dae5",
	},
	"torus-4x4/k=2/S=1/contention=false": {
		"f8655997f92eb7257de22b8522a3b01c5016f9684f6c05cdd630405652013c9e",
		"6014684d75d24c46b85738bcacadc75367be8ced887d39a7c2232437b73cf143",
	},
	"torus-4x4/k=2/S=1/contention=true": {
		"591783b7ff92fff019922dd4317d653c8ed678e9f602873095348f47fffd6462",
		"ceb6ddbcb85f11521fe8ae338cbf417d8166ff320195aa40fe258148ca165181",
	},
	"torus-4x4/k=2/S=3/contention=false": {
		"6625f6a2cada813dd30965831ba843a39b09fc24f8caf4485ec29475c5a9b7a6",
		"6d9fd41cbe7ce62b9699ca2763c27725849e2c85cd73e835bb98890a93a68c51",
	},
	"torus-4x4/k=2/S=3/contention=true": {
		"8866121d8d7b0f34a76d0ce2382c375391c9bb5637c2c7085f86682dca5e0525",
		"6d9fd41cbe7ce62b9699ca2763c27725849e2c85cd73e835bb98890a93a68c51",
	},
	"torus-4x4/k=3/S=0/contention=false": {
		"2af66731751730114adc3b9465262de6d946c8a5cf6c2f5655c6df0d08509d35",
		"0537a9d119b57ace1dc7f53c6434a56f89960d5b5ac050d976c7ca65c58c0c2d",
	},
	"torus-4x4/k=3/S=0/contention=true": {
		"2a2c17197a037bbe98c4b4870ff62d8757f7251d65f6972687c71e2a58ae0eaf",
		"52847afa9edce0f3425c30b3bdadd1398f4589ab42045b5909288d3fff9eea7b",
	},
	"torus-4x4/k=3/S=1/contention=false": {
		"f42d08f4c5d38285c90474cf5374e40d71b2e54b7e7a046f82402b917d15ef47",
		"26e81701e9c6c1401da98e5915b5b064e9e9cc851f272a3a11ca59a52f938cd2",
	},
	"torus-4x4/k=3/S=1/contention=true": {
		"abd3bc360f6bdd5b488d5a0e7ba2dc47599903ea0e23c2841e64f292466a8a51",
		"6d23172912d7764ee485cffde24ffc894bc38a5ac1c0a8b80e593b94279f7e15",
	},
	"torus-4x4/k=3/S=3/contention=false": {
		"cb955b89a27b3fe6f473765451e35c756cbeeb00652a883097e6d235f303edaa",
		"31a3241506e23cb933fd3a772ee2012b455e8c497f2f1774af657abc03c5fa9a",
	},
	"torus-4x4/k=3/S=3/contention=true": {
		"92d42df95fa7fb77b1aaad6b8265f5a56b13e3bb40a72c7091f954dbde86ef9e",
		"90715b9d0e2d653a24c9d1329cc4453d1c652ba00fa4f20ac04166837c878ff8",
	},
}

// fanOutRun drives one network under a seeded script of broadcasts and
// multicasts, several sharing an instant, and hashes two logs: every
// endpoint arrival (now, ep, src, seq, slack), seen through a peek
// handler that never consumes, and every ordered processing (now, ep,
// src, seq, GT, OT), seen through TestHook.
func fanOutRun(t *testing.T, topo *topology.Topology, cfg Config) (arrivals, order string) {
	t.Helper()
	k := sim.NewKernel()
	run := &stats.Run{}
	net := New(k, topo, cfg, &run.Traffic, run)
	ha, ho := sha256.New(), sha256.New()
	for ep := 0; ep < topo.Nodes(); ep++ {
		ep := ep
		net.Register(ep, func(int, uint64, any, sim.Time) {}, func(src int, seq uint64, _ any, slack int) bool {
			fmt.Fprintln(ha, k.Now(), ep, src, seq, slack)
			return false
		})
	}
	processed := 0
	net.TestHook = func(ep, src int, seq uint64, gt, ot uint64) {
		processed++
		fmt.Fprintln(ho, k.Now(), ep, src, seq, gt, ot)
	}
	net.Start()
	rng := sim.NewRand(uint64(cfg.TokensPerPort*100 + cfg.InitialSlack))
	ins := make([]injection, 160)
	want := 0
	for i := range ins {
		// Half the injections land on a 75 ns grid, so several share an
		// instant with each other and with token hops.
		at := sim.Time(rng.Int63n(160)) * 75 * sim.Nanosecond
		if rng.Bool(0.5) {
			at = sim.Time(rng.Int63n(int64(12 * sim.Microsecond)))
		}
		ins[i] = injection{net: net, src: rng.Intn(topo.Nodes())}
		want += topo.Nodes()
		if rng.Bool(0.4) {
			ins[i].mask = rng.Uint64() & (1<<uint(topo.Nodes()) - 1)
			if ins[i].mask == 0 {
				ins[i].mask = 1
			}
			want += bits.OnesCount64(ins[i].mask) - topo.Nodes()
		}
		k.AtCall(at, injectEvent, &ins[i], nil, 0)
	}
	k.RunUntil(30 * sim.Microsecond)
	if processed != want {
		t.Fatalf("processed %d copies, want %d", processed, want)
	}
	return sum(ha), sum(ho)
}

func sum(h hash.Hash) string { return fmt.Sprintf("%x", h.Sum(nil)) }

// One event per (fan-out, link latency) must leave every endpoint arrival
// and every ordered processing where it was, to the picosecond, with the
// same slack, GT and OT: on both fabrics, with 1-3 tokens per port, slack
// 0-3, cut-through and contended, and Verify on.
func TestFanOutKeepsArrivalAndOrder(t *testing.T) {
	for _, topo := range []*topology.Topology{topology.MustButterfly(4), topology.MustTorus(4, 4)} {
		for tokens := 1; tokens <= 3; tokens++ {
			for _, slack := range []int{0, 1, 3} {
				for _, contention := range []bool{false, true} {
					name := fmt.Sprintf("%s/k=%d/S=%d/contention=%v", topo.Name(), tokens, slack, contention)
					t.Run(name, func(t *testing.T) {
						cfg := DefaultConfig()
						cfg.TokensPerPort = tokens
						cfg.InitialSlack = slack
						cfg.Contention = contention
						a, o := fanOutRun(t, topo, cfg)
						if w := fanOutDigests[name]; a != w[0] || o != w[1] {
							t.Errorf("digests = {%q, %q}, want {%q, %q}", a, o, w[0], w[1])
						}
					})
				}
			}
		}
	}
}

// dispatches counts the kernel events of one network from 100 ns to
// 2 µs, with one broadcast from endpoint 3 at 100 ns when inject is set.
func dispatches(t *testing.T, topo *topology.Topology, inject bool) uint64 {
	k, net, logs, _ := buildNet(t, topo, DefaultConfig())
	k.RunUntil(100 * sim.Nanosecond)
	before := k.Executed()
	if inject {
		net.Inject(3, nil)
	}
	k.RunUntil(2 * sim.Microsecond)
	if inject {
		checkAgreement(t, logs, 1)
	}
	return k.Executed() - before
}

// The hop batch costs one kernel dispatch per run of same-instant
// network work. On the butterfly every link takes one Dswitch, so a
// token round is one dispatch, and a broadcast off the token beat adds
// the injection hop and the two switch stages' waves; the sixteen
// ordered handoffs run inside the token wave that processes them, since
// the handler itself models Dovh. The torus adds its zero-latency
// on-die links, whose work joins the running dispatch. (With one kernel
// event per link and per handoff these were 3,048 and 22 on the
// butterfly, 6,096 and 41 on the torus.)
func TestFanOutDispatchCounts(t *testing.T) {
	for _, c := range []struct {
		topo          *topology.Topology
		tokens, bcast uint64
	}{
		{topology.MustButterfly(4), 127, 3},
		{topology.MustTorus(4, 4), 254, 9},
	} {
		tokens := dispatches(t, c.topo, false)
		if tokens != c.tokens {
			t.Errorf("%s: token-only window dispatched %d events, want %d", c.topo.Name(), tokens, c.tokens)
		}
		if got := dispatches(t, c.topo, true) - tokens; got != c.bcast {
			t.Errorf("%s: one broadcast dispatched %d events, want %d", c.topo.Name(), got, c.bcast)
		}
	}
}
