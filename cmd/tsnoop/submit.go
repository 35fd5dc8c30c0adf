package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"strings"
	"time"

	"tsnoop/internal/cluster"
	"tsnoop/internal/harness"
	"tsnoop/internal/spec"
)

// submitCmd is the client for a tsnoop serve instance: it renders the
// parsed Spec flag set as JSON, posts it, and streams the server's
// response to stdout. The cache disposition (hit / join / miss) is
// reported on stderr, so scripts can assert that a repeated submission
// was served from the store.
//
//	tsnoop submit -addr http://localhost:8177 -benchmark OLTP -seeds 3
//	tsnoop submit -mode grid -network torus -benchmark ""      # all five
//	tsnoop submit -mode sweep -sweep ablation -benchmark barnes
//	tsnoop submit -retry 5 -benchmark barnes    # ride out 429s and restarts
//
// -retry N re-submits up to N times on connection errors and on 429 /
// 503 responses (a loaded or draining server), with exponential backoff
// plus jitter, honoring a Retry-After header when the server sends one.
// Retries happen only before the stream starts, so output is never
// duplicated.
var submitCmd = &command{
	name:      "submit",
	summary:   "submit an experiment to a tsnoop server",
	simulates: true, // binds the full Spec flag set (the server simulates)
	setup: func(fs *flag.FlagSet) execFn {
		s := spec.Default()
		s.Bind(fs)
		addr := fs.String("addr", "http://localhost:8177", "server base URL")
		mode := fs.String("mode", "run", "what to submit: run (one Run JSON), grid, or sweep (NDJSON streams)")
		sweepKind := fs.String("sweep", "ablation", "sweep kind for -mode sweep")
		timeout := fs.Duration("timeout", 0, "request timeout (0 = none)")
		retry := fs.Int("retry", 0, "re-submissions on connection errors, 429, and 503 (0 = fail fast)")
		verbose := fs.Bool("verbose", false, "after the response, print server-side phase spans (queue wait, simulate, store write, forward hops) from the request trace (/v1/traces/{id})")
		return func(ctx context.Context, stdout, stderr io.Writer) error {
			var path string
			var body []byte
			switch *mode {
			case "run":
				if err := s.Validate(); err != nil {
					return err
				}
				path, body = "/v1/runs", s.JSON()
			case "grid":
				if err := harness.FromSpec(s).ValidateGrid(s.Network); err != nil {
					return err
				}
				path, body = "/v1/grids", s.JSON()
			case "sweep":
				if err := s.Validate(); err != nil {
					return err
				}
				path = "/v1/sweeps"
				var err error
				body, err = json.Marshal(struct {
					Sweep string          `json:"sweep"`
					Spec  json.RawMessage `json:"spec"`
				}{*sweepKind, s.JSON()})
				if err != nil {
					return err
				}
			default:
				return fmt.Errorf("unknown -mode %q (have run, grid, sweep)", *mode)
			}
			if *timeout > 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, *timeout)
				defer cancel()
			}
			resp, err := submitWithRetry(ctx, stderr,
				strings.TrimRight(*addr, "/")+path, body, *retry)
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			reportDisposition(stderr, resp)
			if err := streamResponse(stdout, resp.Body); err != nil {
				return err
			}
			if *verbose {
				reportServerSpans(ctx, stderr, strings.TrimRight(*addr, "/"), resp)
			}
			return nil
		}
	},
}

// submitClient has explicit timeouts everywhere the default client has
// none: a quick dial bound (so a dead server fails fast) and a
// response-header bound generous enough to cover a cold simulation —
// the server sends no headers until the run completes.
var submitClient = cluster.NewHTTPClient(cluster.SubmitTimeouts())

// retryableStatus reports whether a status is worth re-submitting: 429
// is the server's load-shedding gate, 503 a draining or restarting
// node. Anything else (including 500) reflects the request, not the
// moment.
func retryableStatus(code int) bool {
	return code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable
}

// submitWithRetry posts body to url, re-submitting up to retries times
// on connection errors and retryable statuses. Backoff doubles from
// half a second (capped at 30s) with jitter so a restarted server is
// not met by synchronized clients; a Retry-After header (seconds or
// HTTP-date) overrides the computed delay. On success the response is
// returned with its body unread, status 200 guaranteed.
func submitWithRetry(ctx context.Context, stderr io.Writer, url string, body []byte, retries int) (*http.Response, error) {
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := submitClient.Do(req)
		var note string
		var wait time.Duration
		switch {
		case err != nil:
			if ctx.Err() != nil {
				return nil, fmt.Errorf("submit: %w", err)
			}
			note = err.Error()
		case resp.StatusCode == http.StatusOK:
			return resp, nil
		default:
			note = fmt.Sprintf("%s: %s", resp.Status, readServerError(resp.Body))
			wait = retryAfter(resp.Header.Get("Retry-After"))
			retryable := retryableStatus(resp.StatusCode)
			resp.Body.Close()
			if !retryable {
				return nil, fmt.Errorf("submit: %s", note)
			}
		}
		if attempt >= retries {
			return nil, fmt.Errorf("submit: %s", note)
		}
		if wait <= 0 {
			// 500ms, 1s, 2s, ... capped at 30s, plus up to 50% jitter.
			wait = min(500*time.Millisecond<<attempt, 30*time.Second)
			wait += rand.N(wait / 2)
		}
		fmt.Fprintf(stderr, "submit: %s; retrying in %s (%d left)\n",
			note, wait.Round(time.Millisecond), retries-attempt)
		select {
		case <-time.After(wait):
		case <-ctx.Done():
			return nil, fmt.Errorf("submit: %w", ctx.Err())
		}
	}
}

// retryAfter parses a Retry-After header: delay seconds or an HTTP
// date. Zero means absent or unparseable.
func retryAfter(h string) time.Duration {
	if h == "" {
		return 0
	}
	if secs, err := strconv.Atoi(h); err == nil && secs >= 0 {
		return time.Duration(secs) * time.Second
	}
	if at, err := http.ParseTime(h); err == nil {
		if d := time.Until(at); d > 0 {
			return d
		}
	}
	return 0
}

// reportDisposition explains how the server answered a /v1/runs request.
func reportDisposition(stderr io.Writer, resp *http.Response) {
	disp := resp.Header.Get("X-Tsnoop-Cache")
	if disp == "" {
		return // streaming endpoints answer per cell, not per request
	}
	line := "cache " + disp
	switch disp {
	case "join":
		line = "joined in-flight job"
	case "miss":
		line = "cache miss (simulating)"
	case "hit":
		line = "cache hit (served from the store)"
	}
	if job := resp.Header.Get("X-Tsnoop-Job"); job != "" {
		line += " [" + job + "]"
	}
	if key := resp.Header.Get("X-Tsnoop-Key"); len(key) >= 12 {
		line += " key " + key[:12]
	}
	fmt.Fprintf(stderr, "submit: %s\n", line)
}

// reportServerSpans prints the server's wall-clock view of the request
// after the stream completes: the request trace from
// GET /v1/traces/{id}, which carries the job's queue_wait, simulate and
// store_write phases, and the owning peer's spans when the run was
// forwarded inside a cluster. Everything here is best-effort decoration
// of a response already delivered — a server too old (or too busy) to
// answer simply prints less.
func reportServerSpans(ctx context.Context, stderr io.Writer, base string, resp *http.Response) {
	traceID := resp.Header.Get(cluster.TraceHeader)
	if traceID == "" {
		return
	}
	var tr struct {
		Node       string       `json:"node"`
		DurUS      int64        `json:"dur_us"`
		Spans      []submitSpan `json:"spans"`
		RemotePeer string       `json:"remote_peer"`
		Remote     []submitSpan `json:"remote_spans"`
	}
	if getJSON(ctx, base+"/v1/traces/"+traceID, &tr) != nil {
		return
	}
	where := tr.Node
	if where == "" {
		where = "server"
	}
	fmt.Fprintf(stderr, "submit: trace %s on %s (%dus total)\n", traceID, where, tr.DurUS)
	printSpans(stderr, "  ", tr.Spans)
	if tr.RemotePeer != "" {
		fmt.Fprintf(stderr, "submit: forwarded to %s\n", tr.RemotePeer)
		printSpans(stderr, "    ", tr.Remote)
	}
}

// submitSpan mirrors the server's TraceSpan shape.
type submitSpan struct {
	Name    string `json:"name"`
	StartUS int64  `json:"start_us"`
	DurUS   int64  `json:"dur_us"`
	Note    string `json:"note"`
}

func printSpans(w io.Writer, indent string, spans []submitSpan) {
	for _, s := range spans {
		line := fmt.Sprintf("%s%-12s %8dus", indent, s.Name, s.DurUS)
		if s.Note != "" {
			line += "  (" + s.Note + ")"
		}
		fmt.Fprintln(w, line)
	}
}

// getJSON fetches one JSON document with the submit client.
func getJSON(ctx context.Context, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := submitClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", url, resp.Status)
	}
	return json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(v)
}

// readServerError extracts the one-object JSON error a tsnoop server
// returns with non-200 statuses.
func readServerError(body io.Reader) string {
	data, err := io.ReadAll(io.LimitReader(body, 1<<16))
	if err != nil {
		return err.Error()
	}
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(data, &e) == nil && e.Error != "" {
		return e.Error
	}
	return strings.TrimSpace(string(data))
}

// streamResponse copies response lines through as they arrive. A
// mid-stream {"error": ...} line (the NDJSON failure convention — the
// 200 status has already been sent by then) becomes the exit error.
func streamResponse(stdout io.Writer, body io.Reader) error {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		line := sc.Bytes()
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(line, &e) == nil && e.Error != "" {
			return fmt.Errorf("submit: server: %s", e.Error)
		}
		if _, err := fmt.Fprintf(stdout, "%s\n", line); err != nil {
			return err
		}
	}
	return sc.Err()
}
