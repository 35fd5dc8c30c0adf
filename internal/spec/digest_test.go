package spec

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"slices"
	"testing"
)

// knobDigests are the SHA-256 digests of spec.Run's result JSON for the
// TS-Snoop knob combinations the cmd/tsnoop goldens do not cover, on
// both fabrics and every benchmark, captured when every address-network
// hop and handoff was its own kernel event. Each case runs with Verify
// off and on, and both runs must give the pinned digest: ordering-time
// consensus holds, and the instrumentation moves no byte.
var knobDigests = map[string]string{
	"OLTP/butterfly/default":             "694bedd8b8546f9be94e5b798d46297c54f2b1bd3556ba4116420474a3503a71",
	"OLTP/butterfly/early":               "76a378dcaf9f95f91f4dd8ca10360f871d8b5d883e01e5065e6a8ea1f08ce7ef",
	"OLTP/butterfly/contention":          "081df6f58a2f81e4c2468d41fc3db2a3b13ce749f4627d126815e930e8b101b4",
	"OLTP/butterfly/mosi+multicast":      "946fe2068b11c3afd96d17338fe75186007d180c205245594c7ec5407c8d88a9",
	"OLTP/butterfly/tokens2+slack0":      "32181d698852c185a9392fdfa2cd517dba83f4ccd3bffb5fefa05d35b80c5373",
	"OLTP/torus/default":                 "a4446fc368add657fc22fb070b9c590d94ffbe35d3e9adf380972e24ff6dddb8",
	"OLTP/torus/early":                   "537415967c0b174cabae3e2bc535f6166d6a0285d0bc098f887512b0a2a92899",
	"OLTP/torus/contention":              "1ab50790e3a213ae24347699c5d6ff03e02519a70ea0ad375657e11bf95e7e5c",
	"OLTP/torus/mosi+multicast":          "5f090166464652f410648f923cf72e1bc76f2a781b461d88e2f5651e2c921288",
	"OLTP/torus/tokens2+slack0":          "a675fcc2e7a05146a5d75c7a5f7dd9e3a475ffb5022d8cb6246b7bd9db3b9e9a",
	"DSS/butterfly/default":              "bc686e9bd29a068a0e0dc7ff86e47b17f04db9db366ba9c6a57fc059f16e1014",
	"DSS/butterfly/early":                "c32a50c5df7d4ed406b0d45133e30966490bc9677bd3f03408bbffdd749b8853",
	"DSS/butterfly/contention":           "2ecf309388917a5be069f0a34e3f437aa1b1f5e6579d94ef0de4b4a2a9ff0b72",
	"DSS/butterfly/mosi+multicast":       "3ec8d1139adebb6624e0a118f7fdfdd49ba8f7604774f7b642838c975de6ec9a",
	"DSS/butterfly/tokens2+slack0":       "c4b922880a0bc0fed545e7a3eec3639839585613c4417efa946723d1ad81ab18",
	"DSS/torus/default":                  "a21044ed7500751c28cb741158c0b55288d2cb257261d63a3d42ed00468fcf81",
	"DSS/torus/early":                    "506c0294a29c49fd0e1dd7dacf0db06ab5d50fcaf36a4c54b27c39e040437b55",
	"DSS/torus/contention":               "93731c42525d59bc8464a499baf948b1d7d778ee9efb56c4730b7fcf0d0c08ab",
	"DSS/torus/mosi+multicast":           "1326baaaca7c2f591b01fd2602d8a41c4a16fd75453c947f57df7de494ab0969",
	"DSS/torus/tokens2+slack0":           "1056231dd4cad24dd4997bd4398274e2dbf6d445a2c8966c9e39f51a51c07d64",
	"apache/butterfly/default":           "c8283cf085288041aae9ac9589dd1a3852423bd3a20b4a5bda2460496be65002",
	"apache/butterfly/early":             "9bf540c2c0498879218b6e7d1159a98ea0504e8cbae91599cd0738b2409713ff",
	"apache/butterfly/contention":        "f4fdbe1c1be79ef8fe3bb35699eafda36d2e75c3dad82a9c04f1386dd86c31c9",
	"apache/butterfly/mosi+multicast":    "d26f8f9c42495fff35be6c891a122c219c2ceb771537a0920b8143fae88f7081",
	"apache/butterfly/tokens2+slack0":    "53ecd190e539e74f90f667f888c3bf5d8336bcac076a7b57c97e34b86c01b3dc",
	"apache/torus/default":               "412468cd1f07e08bba049921f2cb47a8980f9a02ac40a6f73f07cb1240979f59",
	"apache/torus/early":                 "5eecfac61797f337d8fd0b706549861b73570a3960b84e25a8c8c977bc53566e",
	"apache/torus/contention":            "7ea76b245a476cf46e1fc463e716cdd6bc8aea292a06f0b6cb770f1c78c44a2f",
	"apache/torus/mosi+multicast":        "8ebcb6356ae62899f5cb8415da641d668168b17d06f76a4fcc3d75d1b18a35ea",
	"apache/torus/tokens2+slack0":        "7d9cf0d001d927507b9d8992bf94dab1e325d25ebc1dab5d8e4b711731fc69f0",
	"altavista/butterfly/default":        "eb179a8623e7af8c3aadbe5836ef1a4feeaca6e45ddcde9a8d5c97c2907d096e",
	"altavista/butterfly/early":          "8f9f92638d6de62a5c3e256714286e8c31727efac0f9057cf8e245bbe6c54b1d",
	"altavista/butterfly/contention":     "c8b4340c3b017ff54f3934de52c19644915534753f671cc7186c68cce14108ba",
	"altavista/butterfly/mosi+multicast": "4a2413f3ef989b71167aac8821633dabf3522ed562e7a27761b4664eacdf4331",
	"altavista/butterfly/tokens2+slack0": "e9bddea01ab4c805f6c6339413db5e138379048ee87ed69de6348e7db0ed9ba6",
	"altavista/torus/default":            "f8f1ea6d1a72123d8560328aeb6044b6df96a1824a02db506c0a8546111c32d8",
	"altavista/torus/early":              "744d2d7dab587f3db55325096b195dafa43572418465596e1583d7e8d5de3682",
	"altavista/torus/contention":         "627bd43f76629d911b104ceb104e0fa11da893a3f78e132753331e1d7f4ef44e",
	"altavista/torus/mosi+multicast":     "392b94d34e0762a1af1c170119c1d6fc7ba88f460fd5b07e10d842080708618b",
	"altavista/torus/tokens2+slack0":     "f13faa3b8cdf8dd6c3bf47b9cddd8570e89e91fa91045c64c1f5e45c4e6145ba",
	"barnes/butterfly/default":           "70f2bde02503dd96f888c351b0159c17fbecd0cef69bca91dd8d19df53cc3443",
	"barnes/butterfly/early":             "eeee023bb5cce9a8b704b9e9888ac983f60526daf179c96f7699cd45fb66bf16",
	"barnes/butterfly/contention":        "8f3c981ba4535df7b230851f7089f884fd8c94bb781b02d83729b1d0e66466d0",
	"barnes/butterfly/mosi+multicast":    "dd7ef421114ab7162f90e72888e93a4d7108959cb6cc81b3ca382412ef521559",
	"barnes/butterfly/tokens2+slack0":    "7a8b2ac2977e29091f660866ec6d001a37f3c6fcb30520e40cf138238571d49d",
	"barnes/torus/default":               "e1c129cc868f6e9762c484c2bcae555204d43a009bd87197a588b72f7e127531",
	"barnes/torus/early":                 "c64a6ff6834af96d43bd4383e1024e8bdf94ddcccc0903be2da4e87460ae5292",
	"barnes/torus/contention":            "5c03f8dbe870f2ad03eea21a6474ff5976a0692af55eaaefd7ddddb255ba565a",
	"barnes/torus/mosi+multicast":        "10086740e3c76cbb6d81e4149179de87c743c4ae9605d3888240ccaea76af00f",
	"barnes/torus/tokens2+slack0":        "006cf12ce3cafb1637f67be5eb5b437a774a047324973c646b007aded7faa43a",

	// 4 KiB caches with 3 ns perturbation evict Modified blocks often
	// enough that foreign requests find them in the writeback buffer, so
	// these pin the buffer's owner answers under MSI and MOSI. Captured
	// when the buffer, the cache line and deferred obligations still
	// each wrote the owner rule out separately.
	"OLTP/butterfly/cache4KiB":           "55fd87b92053c8c007f45bcedbcf244b5af4d2208d91ffe452b00887d048e03f",
	"OLTP/butterfly/mosi+cache4KiB":      "06a9e8ce577138fd6acf16e177d83074199bd034c1cb8d1ad4cb428c988e9b5c",
	"OLTP/torus/cache4KiB":               "7a6bfb3b995fa95533b16d6a1d90c9015ca7610ebedaeefbe6d15a5f0eba47e4",
	"OLTP/torus/mosi+cache4KiB":          "c499c82adba0137da0973ce14c3c42f1ce66d2d251a404b50fdadad7e6e248c4",
	"DSS/butterfly/cache4KiB":            "be583f6c22e42e25393150cdfefa12011dd9a8e38a72562a3e8b0b859c0cd45c",
	"DSS/butterfly/mosi+cache4KiB":       "a5aa116b3c9a897a793a1cc1fa451e0e48a2bfec31d55386bdc44e3a83b0095f",
	"DSS/torus/cache4KiB":                "2112f14cb4638e23e4914e0fef89dce16db953acc973fc9da609e31b9384c33b",
	"DSS/torus/mosi+cache4KiB":           "b59813a4b24f9650d96705a2494d15c7660c06c8372abd8f2cf643a5d12b8a6b",
	"apache/butterfly/cache4KiB":         "caf2982a575c09a998a4d8a7b03e3303b0ab87bc5550bd529fe1c24174f3e1d4",
	"apache/butterfly/mosi+cache4KiB":    "b274716e98eacd1e293f6bde738d1c4f5987f1dc99821ae5e3ccc00176e63b10",
	"apache/torus/cache4KiB":             "4c3ec873edd31c6ec464182a75fe32d366440de822d32f7fae77365db48b271b",
	"apache/torus/mosi+cache4KiB":        "b5015e828aeba6f697fd1140b68a576b94fb6b2aa7ee37ad55f178bb6f673680",
	"altavista/butterfly/cache4KiB":      "eb8f5a63571949667a6d5c382c7731bc0137a5dc6185e6a4a0938b5fc5840a13",
	"altavista/butterfly/mosi+cache4KiB": "6f6ced677eb4df99ea3fb1ed9a3e598deb86de178b49c57f416161023f1199c3",
	"altavista/torus/cache4KiB":          "3b12bef4bd6f7fc654a554dc6c1144e42ac5bd21e15b15c06a8040aa863ed621",
	"altavista/torus/mosi+cache4KiB":     "9558d61d59fbc0a03121056fb4418252536932bb871c85df30c2d5d298230d71",
	"barnes/butterfly/cache4KiB":         "5fc89ac9ff3b9c3e0339c6650df6cded9eac386759fe8ed224a7628978b924b0",
	"barnes/butterfly/mosi+cache4KiB":    "1a9975d8c2e6859279249cd58708f1d8e5b8c20ea3255696c3e4400c4b9686c6",
	"barnes/torus/cache4KiB":             "b11b2cd1e899a9b16590a2d10aacf147f4876cbd7fa2f9376fe5aa8865640faa",
	"barnes/torus/mosi+cache4KiB":        "e1f1d3c78b55a503caa0615ef2383efe24f61ffe30d0bb3deeba8382d6106e8c",

	// Three tokens per port with slack 3 order every transaction at the
	// same picosecond as one token with slack 1 (each link is three
	// ticks deep), so these equal the default digests while running
	// three times the tokens. nodes4 and nodes64 cover the smallest
	// butterfly and torus, the radix-8 butterfly and the 8x8 torus.
	// Captured when every token was simulated.
	"OLTP/butterfly/tokens3+slack3":      "694bedd8b8546f9be94e5b798d46297c54f2b1bd3556ba4116420474a3503a71",
	"OLTP/butterfly/nodes4":              "404ed6cad9bc6cd25f0b6b3b1ed4bf3cea0b059306c6e80855d281f9f9f1da15",
	"OLTP/butterfly/nodes64":             "4c7961d781db5f1d5fd1dc32d79a361efaacafbf29a5fa0e788b8b6446163f91",
	"OLTP/torus/tokens3+slack3":          "a4446fc368add657fc22fb070b9c590d94ffbe35d3e9adf380972e24ff6dddb8",
	"OLTP/torus/nodes4":                  "d21ae7165f91c22b1c4ce09d3f2676a4c784fce5eef1d9a34f0146ce5182a010",
	"OLTP/torus/nodes64":                 "d5a0bd0a5c55bc334007951f8caf8175588c60e10c573f59c0b1bef676b4b877",
	"DSS/butterfly/tokens3+slack3":       "bc686e9bd29a068a0e0dc7ff86e47b17f04db9db366ba9c6a57fc059f16e1014",
	"DSS/butterfly/nodes4":               "7cf274fa069b39a9d41aa352268d39758a01456829d19dedd01a49d4980f1b2a",
	"DSS/torus/tokens3+slack3":           "a21044ed7500751c28cb741158c0b55288d2cb257261d63a3d42ed00468fcf81",
	"DSS/torus/nodes4":                   "cfda10ba93518fc4cd1bdaf07ad23e588db453faea7b41f831b646e666434c3b",
	"apache/butterfly/tokens3+slack3":    "c8283cf085288041aae9ac9589dd1a3852423bd3a20b4a5bda2460496be65002",
	"apache/butterfly/nodes4":            "66ea4cb7d698036d2242bdc67c6902e00f221d8a5be4699ff53b2a2f89a2dfae",
	"apache/torus/tokens3+slack3":        "412468cd1f07e08bba049921f2cb47a8980f9a02ac40a6f73f07cb1240979f59",
	"apache/torus/nodes4":                "395c6411b85f0f592ece7bbb52c1df4c27126a932ccc50a01671913ec97301d8",
	"altavista/butterfly/tokens3+slack3": "eb179a8623e7af8c3aadbe5836ef1a4feeaca6e45ddcde9a8d5c97c2907d096e",
	"altavista/butterfly/nodes4":         "59fcf7dec8ec4c71d524ef8e1d1391f36e6e5c83cd940e406aa56db303b35ee5",
	"altavista/torus/tokens3+slack3":     "f8f1ea6d1a72123d8560328aeb6044b6df96a1824a02db506c0a8546111c32d8",
	"altavista/torus/nodes4":             "4af756b891d071f58c726b23d7fa46e2cb04c7aa36e9a6b02b20e00282f70bf0",
	"barnes/butterfly/tokens3+slack3":    "70f2bde02503dd96f888c351b0159c17fbecd0cef69bca91dd8d19df53cc3443",
	"barnes/butterfly/nodes4":            "5ec9275d15653edf91cedac9aac6f05db9311ce2abc0f14935f9268cee79024d",
	"barnes/torus/tokens3+slack3":        "e1c129cc868f6e9762c484c2bcae555204d43a009bd87197a588b72f7e127531",
	"barnes/torus/nodes4":                "5a2fc05ad5762949f694b75e72d388b479ae646f4856ea9f09bde1cc3f376d57",
}

// knobVariants are the design-knob settings the digest table covers:
// on every benchmark, or only on those named in only.
var knobVariants = []struct {
	name string
	opts []Option
	only []string
}{
	{"default", nil, nil},
	{"early", []Option{WithEarlyProcessing()}, nil},
	{"contention", []Option{WithContention()}, nil},
	{"mosi+multicast", []Option{WithMOSI(), WithMulticast()}, nil},
	{"tokens2+slack0", []Option{WithTokensPerPort(2), WithSlack(0)}, nil},
	{"cache4KiB", []Option{WithCacheBytes(4096), WithPerturbNS(3), WithWarmup(500), WithQuota(500)}, nil},
	{"mosi+cache4KiB", []Option{WithMOSI(), WithCacheBytes(4096), WithPerturbNS(3), WithWarmup(500), WithQuota(500)}, nil},
	{"tokens3+slack3", []Option{WithTokensPerPort(3), WithSlack(3)}, nil},
	{"nodes4", []Option{WithNodes(4)}, nil},
	{"nodes64", []Option{WithNodes(64)}, []string{"OLTP"}},
}

func TestKnobDigests(t *testing.T) {
	for _, bench := range Benchmarks() {
		for _, network := range []string{"butterfly", "torus"} {
			for _, v := range knobVariants {
				if v.only != nil && !slices.Contains(v.only, bench) {
					continue
				}
				name := fmt.Sprintf("%s/%s/%s", bench, network, v.name)
				t.Run(name, func(t *testing.T) {
					opts := append([]Option{WithNetwork(network), WithWarmup(60), WithQuota(120)}, v.opts...)
					for _, verify := range []bool{false, true} {
						s := New(bench, opts...)
						s.Verify = verify
						run, err := s.Run()
						if err != nil {
							t.Fatal(err)
						}
						data, err := json.Marshal(run)
						if err != nil {
							t.Fatal(err)
						}
						if got, want := fmt.Sprintf("%x", sha256.Sum256(data)), knobDigests[name]; got != want {
							t.Errorf("verify=%v: digest %s, want %s", verify, got, want)
						}
					}
				})
			}
		}
	}
}
