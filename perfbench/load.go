package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// requestTimeout bounds every request; a request that fails or times
// out is counted at this latency in every percentile.
const (
	requestTimeout = 10 * time.Second
	timeoutMS      = float64(requestTimeout) / 1e6
)

// request is one HTTP call the benchmark makes.
type request struct {
	kind   string // latency class: warm, fleet, probe, ingest, cold
	method string
	path   string
	org    string // X-MPA-Org header value; "" sends none
	body   []byte
	// key names the expected response body in the run's answer map;
	// "" skips the body check (only the status is checked).
	key string
}

// conn is one client connection: a transport that never opens a
// second connection to the daemon.
type conn struct {
	client *http.Client
	base   string
}

func newConn(base string) *conn {
	tr := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}
	return &conn{client: &http.Client{Transport: tr, Timeout: requestTimeout}, base: base}
}

func (c *conn) close() { c.client.CloseIdleConnections() }

// do sends r and returns the status and body.
func (c *conn) do(ctx context.Context, r *request) (int, []byte, error) {
	var body io.Reader
	if r.body != nil {
		body = bytes.NewReader(r.body)
	}
	req, err := http.NewRequestWithContext(ctx, r.method, c.base+r.path, body)
	if err != nil {
		return 0, nil, err
	}
	if r.org != "" {
		req.Header.Set("X-MPA-Org", r.org)
	}
	if r.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// outcome is one timed request.
type outcome struct {
	kind  string
	ep    string  // endpoint, for the per-endpoint notes
	latMS float64 // open loop: from the scheduled send; closed loop: from the send
	// lagMS is how late the generator sent a request while a connection
	// was idle and waiting for it; -1 when the request queued behind a
	// busy connection instead. Both waits are in latMS.
	lagMS float64
	ok    bool
}

// tally collects outcomes and the first correctness failure.
type tally struct {
	mu       sync.Mutex
	outcomes []outcome
	failed   int
	problem  error
	answers  map[string][]byte // expected bodies by request key; read-only while timing
}

func (t *tally) add(o outcome, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.outcomes = append(t.outcomes, o)
	if !o.ok {
		t.failed++
		if t.problem == nil && err != nil {
			t.problem = err
		}
	}
}

// check validates one response: a 2xx status, and the recorded answer
// when the request names one.
func (t *tally) check(r *request, status int, body []byte, err error) error {
	if err != nil {
		return fmt.Errorf("%s %s: %w", r.method, r.path, err)
	}
	if status < 200 || status > 299 {
		return fmt.Errorf("%s %s (org %q): status %d: %.200s", r.method, r.path, r.org, status, body)
	}
	if r.key != "" {
		if want, ok := t.answers[r.key]; ok && !bytes.Equal(want, body) {
			return fmt.Errorf("%s %s (org %q): body differs from the pre-warm answer", r.method, r.path, r.org)
		}
	}
	return nil
}

// merge adds o's outcomes, failures and first problem to t.
func (t *tally) merge(o *tally) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.outcomes = append(t.outcomes, o.outcomes...)
	t.failed += o.failed
	if t.problem == nil {
		t.problem = o.problem
	}
}

// latencies returns the latencies of the given kinds.
func (t *tally) latencies(kinds ...string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, o := range t.outcomes {
		for _, k := range kinds {
			if o.kind == k {
				out = append(out, o.latMS)
				break
			}
		}
	}
	return out
}

// byEndpoint summarizes the latencies of one kind per endpoint.
func (t *tally) byEndpoint(kind string) []string {
	t.mu.Lock()
	lat := map[string][]float64{}
	for _, o := range t.outcomes {
		if o.kind == kind {
			lat[o.ep] = append(lat[o.ep], o.latMS)
		}
	}
	t.mu.Unlock()
	eps := make([]string, 0, len(lat))
	for ep := range lat {
		eps = append(eps, ep)
	}
	sort.Strings(eps)
	out := make([]string, len(eps))
	for i, ep := range eps {
		xs := lat[ep]
		out[i] = fmt.Sprintf("%s n=%d p50 %.3f p99 %.3f ms", ep, len(xs), percentile(xs, 0.5), percentile(xs, 0.99))
	}
	return out
}

// lags returns the generator lags of requests sent by an idle
// connection.
func (t *tally) lags() []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, o := range t.outcomes {
		if o.lagMS >= 0 {
			out = append(out, o.lagMS)
		}
	}
	return out
}

// timed sends r once, closed loop, and records it.
func (t *tally) timed(ctx context.Context, c *conn, r *request) (time.Duration, []byte) {
	start := time.Now()
	status, body, err := c.do(ctx, r)
	d := time.Since(start)
	cerr := t.check(r, status, body, err)
	lat := float64(d) / 1e6
	if cerr != nil {
		lat = math.Max(lat, timeoutMS)
	}
	t.add(outcome{kind: r.kind, latMS: lat, lagMS: -1, ok: cerr == nil}, cerr)
	return d, body
}

// endpointOf names a request's endpoint, for spans and per-endpoint notes.
func endpointOf(path string) string {
	p := strings.TrimPrefix(path, "/v1/")
	if strings.HasPrefix(p, "orgs/") {
		if i := strings.IndexByte(p[len("orgs/"):], '/'); i >= 0 {
			p = p[len("orgs/")+i+1:]
		}
	}
	if i := strings.IndexByte(p, '?'); i >= 0 {
		p = p[:i]
	}
	if strings.HasPrefix(p, "report/") {
		return "report"
	}
	return strings.ReplaceAll(p, "/", "_")
}

// arrivals is a seeded Poisson arrival process: exponential gaps at a
// fixed rate, each arrival carrying a request drawn by pick.
type arrivals struct {
	mu   sync.Mutex
	rng  *rand.Rand
	rate float64 // per second
	next time.Duration
	pick func(*rand.Rand) *request
}

func newArrivals(seed, stream uint64, rate float64, pick func(*rand.Rand) *request) *arrivals {
	a := &arrivals{rng: rand.New(rand.NewPCG(seed, stream)), rate: rate, pick: pick}
	a.next = a.gap()
	return a
}

func (a *arrivals) gap() time.Duration {
	return time.Duration(a.rng.ExpFloat64() / a.rate * float64(time.Second))
}

// take returns the next arrival's offset and request.
func (a *arrivals) take() (time.Duration, *request) {
	a.mu.Lock()
	defer a.mu.Unlock()
	at := a.next
	r := a.pick(a.rng)
	a.next += a.gap()
	return at, r
}

// spinFor is how long before a scheduled send the generator stops
// sleeping and spins. Go's timers wake up to a millisecond late, which
// timed from the schedule was two thirds of a warm read; nanosleep wakes
// within ~100 µs, and a short spin takes up the rest without taking the
// CPU from the daemon for long.
const spinFor = 100 * time.Microsecond

// waitUntil blocks until offset at after t0. Waits are Poisson gaps of
// a few milliseconds, so the sleep does not watch for cancellation; the
// caller checks after it.
func waitUntil(t0 time.Time, at time.Duration) {
	for {
		wait := at - time.Since(t0) - spinFor
		if wait <= 0 {
			break
		}
		ts := syscall.NsecToTimespec(int64(wait))
		_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep goes round again
	}
	for time.Since(t0) < at {
		runtime.Gosched()
	}
}

// openLoop sends the arrivals over conns until the schedule passes
// until or stop is closed. Each connection takes the next due arrival
// when it is free, so a stall delays later requests instead of thinning
// the schedule, and every latency runs from the scheduled send.
func (t *tally) openLoop(ctx context.Context, conns []*conn, a *arrivals, until time.Duration, stop <-chan struct{}) {
	t0 := time.Now()
	var stopped atomic.Bool
	var wg sync.WaitGroup
	for _, c := range conns {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			for !stopped.Load() {
				at, r := a.take()
				if until > 0 && at >= until {
					stopped.Store(true)
					return
				}
				lag := -1.0
				if at > time.Since(t0) {
					waitUntil(t0, at)
					lag = float64(time.Since(t0)-at) / 1e6
				}
				select {
				case <-stop:
					stopped.Store(true)
					return
				case <-ctx.Done():
					return
				default:
				}
				status, body, err := c.do(ctx, r)
				lat := float64(time.Since(t0)-at) / 1e6
				cerr := t.check(r, status, body, err)
				if cerr != nil {
					lat = math.Max(lat, timeoutMS)
				}
				t.add(outcome{kind: r.kind, ep: endpointOf(r.path), latMS: lat, lagMS: lag, ok: cerr == nil}, cerr)
			}
		}(c)
	}
	wg.Wait()
}
