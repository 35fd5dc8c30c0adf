package main

// Tests for the service-facing CLI surface: tsnoop serve + submit end
// to end over a real socket, the -cache flag on run/grid/sweep, and the
// version subcommand.

import (
	"bytes"
	"context"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuffer is a goroutine-safe bytes.Buffer: the serve goroutine
// writes its stderr while the test polls it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (sb *syncBuffer) Write(p []byte) (int, error) {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	return sb.b.Write(p)
}

func (sb *syncBuffer) String() string {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	return sb.b.String()
}

// startServer runs `tsnoop serve` on a free port in the background and
// returns its base URL plus a shutdown function that asserts a clean
// graceful drain.
func startServer(t *testing.T, extra ...string) (string, func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var out bytes.Buffer
	var errb syncBuffer
	done := make(chan error, 1)
	go func() {
		args := append([]string{"-addr", "127.0.0.1:0", "-drain", "5s"}, extra...)
		done <- serveCmd.exec(ctx, args, &out, &errb)
	}()
	addrRE := regexp.MustCompile(`serving on (http://[0-9.:]+)`)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if m := addrRE.FindStringSubmatch(errb.String()); m != nil {
			return m[1], func() {
				cancel()
				select {
				case err := <-done:
					if err != nil {
						t.Errorf("serve did not drain cleanly: %v", err)
					}
				case <-time.After(10 * time.Second):
					t.Error("serve did not exit after cancel")
				}
				if !strings.Contains(errb.String(), "draining") {
					t.Errorf("serve skipped the drain path:\n%s", errb.String())
				}
			}
		}
		if time.Now().After(deadline) {
			cancel()
			t.Fatalf("server never announced its address:\n%s", errb.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// The CLI acceptance path: submit the same run twice over HTTP; the
// first simulates, the second is a store hit with byte-identical output.
func TestServeSubmitSecondResponseIsCacheHit(t *testing.T) {
	url, shutdown := startServer(t, "-cache", t.TempDir())
	defer shutdown()
	args := []string{"submit", "-addr", url, "-benchmark", "barnes",
		"-nodes", "4", "-warmup", "60", "-quota", "120"}

	first, firstErr := execTsnoop(t, args...)
	if !strings.Contains(firstErr, "cache miss") {
		t.Fatalf("first submit stderr = %q, want a cache miss", firstErr)
	}
	second, secondErr := execTsnoop(t, args...)
	if !strings.Contains(secondErr, "cache hit") {
		t.Fatalf("second submit stderr = %q, want a cache hit", secondErr)
	}
	if first != second {
		t.Fatalf("second response not byte-identical:\n first: %s\nsecond: %s", first, second)
	}
	if !strings.Contains(first, `"runtime_ps"`) {
		t.Fatalf("response is not Run JSON: %s", first)
	}
}

func TestServeSubmitGridStreamsNDJSON(t *testing.T) {
	url, shutdown := startServer(t)
	defer shutdown()
	out, _ := execTsnoop(t, "submit", "-addr", url, "-mode", "grid",
		"-benchmark", "barnes", "-nodes", "4", "-network", "butterfly",
		"-warmup", "60", "-quota", "120")
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("grid submit streamed %d lines, want 3:\n%s", len(lines), out)
	}
	for _, line := range lines {
		if !strings.HasPrefix(line, `{"benchmark":"barnes"`) {
			t.Fatalf("unexpected grid line: %s", line)
		}
	}
}

// submit -verbose prints each server phase once: the request trace
// already carries the job's queue_wait, simulate and store_write spans.
func TestSubmitVerbosePrintsPhasesOnce(t *testing.T) {
	url, shutdown := startServer(t)
	defer shutdown()
	_, errOut := execTsnoop(t, "submit", "-addr", url, "-benchmark", "barnes",
		"-nodes", "4", "-warmup", "60", "-quota", "120", "-verbose")
	if !strings.Contains(errOut, "submit: trace") {
		t.Fatalf("-verbose printed no request trace:\n%s", errOut)
	}
	for _, phase := range []string{"queue_wait", "simulate", "store_write"} {
		if n := strings.Count(errOut, phase); n != 1 {
			t.Errorf("-verbose printed %s %d times, want once:\n%s", phase, n, errOut)
		}
	}
}

func TestSubmitReportsServerErrors(t *testing.T) {
	url, shutdown := startServer(t)
	defer shutdown()
	err := submitCmd.exec(context.Background(),
		[]string{"-addr", url, "-benchmark", "tpc-w"}, &bytes.Buffer{}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "unknown benchmark") {
		t.Fatalf("submit error = %v, want the server's validation message", err)
	}
}

// run -cache: the second invocation renders from the store, and output
// is byte-identical to the uncached path.
func TestRunCacheFlagServesSecondRunFromStore(t *testing.T) {
	dir := t.TempDir()
	args := []string{"run", "-benchmark", "barnes", "-nodes", "4",
		"-warmup", "60", "-quota", "120", "-seeds", "2", "-perturb-ns", "3"}
	plain, _ := execTsnoop(t, args...)
	cold, coldErr := execTsnoop(t, append(args, "-cache", dir)...)
	if cold != plain {
		t.Fatalf("-cache cold output differs from uncached:\n got:\n%s\nwant:\n%s", cold, plain)
	}
	if strings.Contains(coldErr, "served from the result store") {
		t.Fatalf("cold run claimed a store hit:\n%s", coldErr)
	}
	warm, warmErr := execTsnoop(t, append(args, "-cache", dir)...)
	if warm != plain {
		t.Fatalf("-cache warm output differs:\n got:\n%s\nwant:\n%s", warm, plain)
	}
	if !strings.Contains(warmErr, "served from the result store") {
		t.Fatalf("warm run did not report the store hit:\n%s", warmErr)
	}

	// -json rides the same store and stays byte-identical.
	jsonPlain, _ := execTsnoop(t, append(args, "-json")...)
	jsonWarm, _ := execTsnoop(t, append(args, "-json", "-cache", dir)...)
	if jsonPlain != jsonWarm {
		t.Fatalf("-cache -json output differs:\n got:\n%s\nwant:\n%s", jsonWarm, jsonPlain)
	}
}

// grid -cache warms from run -cache's store and renders byte-identically.
func TestGridCacheFlagMatchesUncached(t *testing.T) {
	dir := t.TempDir()
	args := []string{"grid", "-figure", "3", "-network", "butterfly", "-benchmark", "barnes",
		"-seeds", "1", "-scale", "0.05", "-warmup-scale", "0.05"}
	plain, _ := execTsnoop(t, args...)
	for pass := 0; pass < 2; pass++ {
		out, _ := execTsnoop(t, append(args, "-cache", dir)...)
		if out != plain {
			t.Fatalf("pass %d: grid -cache output differs:\n got:\n%s\nwant:\n%s", pass, out, plain)
		}
	}
}

// sweep -cache matches the uncached rendering, cold and warm.
func TestSweepCacheFlagMatchesUncached(t *testing.T) {
	dir := t.TempDir()
	args := []string{"sweep", "-sweep", "blocksize", "-benchmark", "barnes",
		"-scale", "0.03", "-warmup-scale", "0.05"}
	plain, _ := execTsnoop(t, args...)
	for pass := 0; pass < 2; pass++ {
		out, _ := execTsnoop(t, append(args, "-cache", dir)...)
		if out != plain {
			t.Fatalf("pass %d: sweep -cache output differs:\n got:\n%s\nwant:\n%s", pass, out, plain)
		}
	}
}

func TestVersionSmoke(t *testing.T) {
	out, _ := execTsnoop(t, "version")
	if !strings.HasPrefix(out, "tsnoop ") || !strings.Contains(out, runtime.Version()) {
		t.Fatalf("version output unexpected: %q", out)
	}
	if strings.Count(strings.TrimSpace(out), "\n") != 0 {
		t.Fatalf("version output is not one line: %q", out)
	}
}
