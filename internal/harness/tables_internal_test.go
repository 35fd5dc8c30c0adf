package harness

import (
	"errors"
	"testing"
	"time"

	"tsnoop/internal/coherence"
	"tsnoop/internal/system"
)

// stuck is a protocol whose accesses never complete.
type stuck struct{ coherence.Protocol }

func (stuck) Access(int, coherence.Op, coherence.Block, func(coherence.AccessResult)) {}

// A Table 2 probe access that never completes fails with ErrDeadlock
// after one stall window instead of spinning: a directory's kernel runs
// dry, but TS-Snoop's token phases keep its kernel busy forever. The
// access runs in a goroutine so that a probe that never returns fails
// the test instead of hanging it.
func TestProbeAccessDeadlockIsTypedError(t *testing.T) {
	for _, proto := range []string{system.ProtoTSSnoop, system.ProtoDirOpt} {
		t.Run(proto, func(t *testing.T) {
			e, err := newProbe(system.NetButterfly, proto)
			if err != nil {
				t.Fatal(err)
			}
			e.sys.Proto = stuck{e.sys.Proto}
			errc := make(chan error, 1)
			go func() {
				_, err := e.access(0, coherence.Load, blockFor(1, 0, 16))
				errc <- err
			}()
			select {
			case err := <-errc:
				if !errors.Is(err, system.ErrDeadlock) {
					t.Fatalf("access error %v, want ErrDeadlock", err)
				}
			case <-time.After(60 * time.Second):
				t.Fatal("access still running after 60 s: the stuck probe was never detected")
			}
		})
	}
}
