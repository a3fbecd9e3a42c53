package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"time"

	"mpa"
	"mpa/internal/tenant"
)

// org is one organization the daemon serves.
type org struct {
	name string
	seed uint64
}

// workload is one traffic shape against one `mpa serve` daemon. Every
// workload runs both phases and reports every end-to-end metric; what
// differs is the daemon, which phase leads, and which org each phase
// reads and writes.
type workload struct {
	name string
	orgs []org
	// warmFirst runs the warm-read phase before the refresh phase.
	warmFirst bool
	// Warm-read phase: an open-loop Poisson mix over warmOrgs plus the
	// fleet aggregates, at warmRate requests/s for warmFor.
	warmOrgs []string
	warmFor  time.Duration
	// Refresh phase: unseen months ingested into ingestOrg in day-range
	// batches, each followed by the cold query set, while /v1/network
	// probes of the same org arrive open loop at probeRate.
	ingestOrg string
	months    int
	batches   int // per month
	// spliceCheck compares the refreshed ranking with a cold rebuild
	// over the extended window after the run.
	spliceCheck bool
}

const setupReps = 3

// warmRate is the warm mix's arrival rate, the 200 requests/s at which
// the warm-read tail of `mpa serve` was first sized (1.5 ms p99 once
// warm, on a 2-CPU machine).
const warmRate = 200

// probeRate is the rate of /v1/network probes during a refresh: low
// beside the warm mix, and enough that a refresh phase of 12 batches
// (11-20 s on a 2-vCPU VM) sends 1070-1920 probes, so probe_p99_ms has
// at least 10 samples beyond it.
const probeRate = 100

// reportIDs are the experiment reports in the warm mix: the ones whose
// cold computation stays under ~0.2 s, so pre-warming them is cheap.
var reportIDs = []string{"table2", "table3", "table5", "table6", "figure2", "figure4", "figure5", "figure13"}

// The organizations are fixed: generator seeds 1 (the CLI default) and
// 2. A different generator seed is a different amount of data — a
// month's ingest volume moves by a quarter between seeds — so letting
// --seed pick the organizations would make the run-to-run spread
// measure the data, not the system. --seed drives everything the
// benchmark sends instead: the arrival schedules, the request mix, the
// probe targets and the predicted network.
const orgSeedA, orgSeedB = 1, 2

// workloadFor builds the named workload for one run length.
func workloadFor(name string, seconds int) (*workload, error) {
	switch name {
	case "dashboard":
		// Two orgs; the warm mix leads and runs for the whole run
		// length, then a two-month refresh of org b.
		return &workload{
			name:      name,
			orgs:      []org{{"a", orgSeedA}, {"b", orgSeedB}},
			warmFirst: true,
			warmOrgs:  []string{"a", "b"},
			warmFor:   time.Duration(seconds) * time.Second,
			ingestOrg: "b",
			months:    2,
			batches:   6,
		}, nil
	case "monthly":
		// One org; the refresh leads, one six-batch month per ten
		// seconds of run length, with the probes reading the org being
		// refreshed — the memo-lock stall. The warm mix follows on the
		// refreshed state for the run length. The daemon is a one-org registry
		// (-orgs a=1), so the fleet endpoints exist; requests naming no
		// org resolve to it exactly as on a single-tenant daemon.
		months := (seconds + 9) / 10
		if months < 1 {
			months = 1
		}
		return &workload{
			name:        name,
			orgs:        []org{{"a", orgSeedA}},
			warmOrgs:    []string{"a"},
			warmFor:     time.Duration(seconds) * time.Second,
			ingestOrg:   "a",
			months:      months,
			batches:     6,
			spliceCheck: true,
		}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want dashboard or monthly)", name)
}

// orgsFlag renders the daemon's -orgs value.
func (w *workload) orgsFlag() string {
	parts := make([]string, len(w.orgs))
	for i, o := range w.orgs {
		parts[i] = fmt.Sprintf("%s=%d", o.name, o.seed)
	}
	return strings.Join(parts, ",")
}

func (w *workload) seedOf(name string) uint64 {
	for _, o := range w.orgs {
		if o.name == name {
			return o.seed
		}
	}
	panic("perfbench: unknown org " + name)
}

// serveConfig is the organization `mpa serve` builds for one seed at its
// default flags: 120 networks over the 10 months from the study start.
func serveConfig(seed uint64) mpa.Config {
	cfg := mpa.DefaultConfig(seed)
	cfg.Networks = 120
	start, _ := mpa.StudyWindow()
	cfg.Start = start
	cfg.End = start.Add(9)
	return cfg
}

// e2eResult is one untraced run's figures and checks.
type e2eResult struct {
	metrics   map[string]float64
	attempted int
	failed    int
	problem   error
	notes     []string
}

// runE2E runs one workload against the real daemon.
func runE2E(ctx context.Context, w *workload, bin, outDir string, seed uint64) (*e2eResult, error) {
	// Inputs first, while nothing is being timed: the unseen months,
	// split into batches and encoded as ingest bodies.
	bodies, err := ingestBodies(serveConfig(w.seedOf(w.ingestOrg)), w.months, w.batches)
	if err != nil {
		return nil, err
	}

	logf, err := os.Create(filepath.Join(outDir, "daemon-"+w.name+".log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	args := []string{"-orgs", w.orgsFlag()}
	ready := "/v1/orgs/" + w.orgs[0].name + "/rank"

	var setups []float64
	var d *daemon
	for i := 0; i < setupReps; i++ {
		var took time.Duration
		d, took, err = startDaemon(ctx, bin, args, ready, logf)
		if err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
		if i < setupReps-1 {
			d.stop()
		}
	}
	defer d.stop()

	t := &tally{answers: map[string][]byte{}}
	c1, c2 := newConn(d.base), newConn(d.base)
	defer c1.close()
	defer c2.close()
	res := &e2eResult{metrics: map[string]float64{}}
	var warm *warmStats
	var ref *refreshStats
	if w.warmFirst {
		if warm, err = w.warmPhase(ctx, t, c1, c2, seed); err == nil {
			ref, err = w.refreshPhase(ctx, t, c1, c2, seed, bodies)
		}
	} else {
		if ref, err = w.refreshPhase(ctx, t, c1, c2, seed, bodies); err == nil {
			warm, err = w.warmPhase(ctx, t, c1, c2, seed)
		}
	}
	if err != nil {
		return nil, err
	}
	rss, err := d.peakRSSMiB()
	if err != nil {
		return nil, err
	}
	d.stop()

	// splice ≡ rebuild: the ingested org's ranking must equal a cold
	// in-process build over the extended window.
	if w.spliceCheck {
		cfg := serveConfig(w.seedOf(w.ingestOrg))
		cfg.End = cfg.End.Add(w.months)
		want, err := coldRankBody(cfg)
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(want, ref.finalRank) {
			res.problem = fmt.Errorf("org %s: /v1/rank after %d ingested batches differs from a cold rebuild over the extended window", w.ingestOrg, ref.batches)
		}
	}

	lags := t.lags()
	res.metrics["setup_s"] = median(setups)
	res.metrics["peak_rss_mib"] = rss
	for k, v := range warm.metrics {
		res.metrics[k] = v
	}
	for k, v := range ref.metrics {
		res.metrics[k] = v
	}
	res.attempted = len(t.outcomes)
	res.failed = t.failed
	if res.problem == nil {
		res.problem = t.problem
	}
	if lagP99 := percentile(lags, 0.99); lagP99 > maxLagP99MS && res.problem == nil {
		res.problem = fmt.Errorf("open-loop generator fell behind: p99 send lag %.1f ms > %.0f ms limit; the run is invalid", lagP99, maxLagP99MS)
	}
	res.notes = append(res.notes,
		fmt.Sprintf("setup_s samples %v", roundAll(setups, 3)),
		fmt.Sprintf("generator lag over %d idle-connection sends: p50 %.3f ms, p99 %.3f ms (limit %.0f ms), max %.3f ms",
			len(lags), percentile(lags, 0.5), percentile(lags, 0.99), maxLagP99MS, percentile(lags, 1)),
		fmt.Sprintf("error_rate %.6f (%d failed of %d attempted)", float64(t.failed)/float64(len(t.outcomes)), t.failed, len(t.outcomes)))
	res.notes = append(res.notes, warm.notes...)
	res.notes = append(res.notes, ref.notes...)
	return res, nil
}

// maxLagP99MS is the open-loop honesty limit: if the generator sent more
// than 1% of its requests later than this after their scheduled time
// while a connection sat idle, it did not keep its schedule and the
// run's latencies do not describe the stated load. The p99 lag is under
// 1 ms on a quiet 2-vCPU VM and reached 4.9 ms when the hypervisor
// slowed a whole run; the limit is twice that.
const maxLagP99MS = 10.0

func roundAll(xs []float64, digits int) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprintf("%.*f", digits, x)
	}
	return out
}

// ingestBodies generates the months after cfg's window with the
// synthetic feed and splits each into day-range batches, encoded as
// POST /v1/ingest bodies in apply order.
func ingestBodies(cfg mpa.Config, months, batches int) ([][][]byte, error) {
	ups, err := mpa.NextMonths(cfg, months)
	if err != nil {
		return nil, err
	}
	out := make([][][]byte, len(ups))
	for i, u := range ups {
		bs, err := splitMonth(u, batches)
		if err != nil {
			return nil, err
		}
		for _, b := range bs {
			body, err := json.Marshal(b)
			if err != nil {
				return nil, err
			}
			out[i] = append(out[i], body)
		}
	}
	return out, nil
}

// rankEntry mirrors one row of the /v1/rank response.
type rankEntry struct {
	Rank        int     `json:"rank"`
	Metric      string  `json:"metric"`
	DisplayName string  `json:"display_name"`
	Category    string  `json:"category"`
	MI          float64 `json:"mi_bits"`
}

// encodeJSON is the daemon's response encoding: two-space indent and a
// trailing newline.
func encodeJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// rankBody encodes a ranking exactly as GET /v1/rank does.
func rankBody(ranked []mpa.PracticeDependence) ([]byte, error) {
	out := make([]rankEntry, len(ranked))
	for i, e := range ranked {
		out[i] = rankEntry{Rank: i + 1, Metric: e.Metric, DisplayName: mpa.DisplayName(e.Metric),
			Category: mpa.MetricCategory(e.Metric), MI: e.MI}
	}
	return encodeJSON(out)
}

// coldRankBody builds cfg's organization in-process from scratch and
// encodes its ranking as GET /v1/rank does.
func coldRankBody(cfg mpa.Config) ([]byte, error) {
	f, err := mpa.NewSynthetic(cfg)
	if err != nil {
		return nil, err
	}
	return rankBody(f.RankPractices())
}

// fleetRankBody merges per-org /v1/rank bodies, weighted by each org's
// case count, exactly as GET /v1/fleet/rank must answer.
func fleetRankBody(rankBodies map[string][]byte, cases map[string]int, names []string) ([]byte, error) {
	parts := make([]tenant.RankPartial, 0, len(names))
	for _, name := range names {
		var rows []rankEntry
		if err := json.Unmarshal(rankBodies[name], &rows); err != nil {
			return nil, fmt.Errorf("org %s rank body: %w", name, err)
		}
		p := tenant.RankPartial{Org: name, Cases: cases[name]}
		for _, r := range rows {
			p.Rank = append(p.Rank, mpa.PracticeDependence{Metric: r.Metric, MI: r.MI})
		}
		parts = append(parts, p)
	}
	merged, err := tenant.MergeRank(parts)
	if err != nil {
		return nil, err
	}
	return encodeJSON(merged)
}

// warmStats is the warm-read phase's figures.
type warmStats struct {
	metrics map[string]float64
	notes   []string
}

// orgHealth is the part of /v1/orgs/{org}/healthz the benchmark uses.
type orgHealth struct {
	Networks int `json:"networks"`
	Cases    int `json:"cases"`
}

func getJSON(ctx context.Context, c *conn, path string, v any) ([]byte, error) {
	status, body, err := c.do(ctx, &request{method: "GET", path: path})
	if err != nil {
		return nil, err
	}
	if status != 200 {
		return nil, fmt.Errorf("GET %s: status %d: %.200s", path, status, body)
	}
	if v != nil {
		if err := json.Unmarshal(body, v); err != nil {
			return nil, fmt.Errorf("GET %s: %w", path, err)
		}
	}
	return body, nil
}

// gcState is the daemon's completed GC cycles and when the last one
// ended, from /debug/vars.
type gcState struct {
	NumGC  uint32
	LastGC int64 // ns since the Unix epoch
}

func daemonGCs(ctx context.Context, c *conn) (gcState, error) {
	var vars struct {
		Memstats gcState `json:"memstats"`
	}
	_, err := getJSON(ctx, c, "/debug/vars", &vars)
	return vars.Memstats, err
}

// settleHeap forces a collection in the daemon (the heap profile
// endpoint collects first with gc=1) and returns its GC count after it.
func settleHeap(ctx context.Context, c *conn) (gcState, error) {
	if _, err := getJSON(ctx, c, "/debug/pprof/heap?gc=1", nil); err != nil {
		return gcState{}, err
	}
	return daemonGCs(ctx, c)
}

func networkName(i int) string { return fmt.Sprintf("net%03d", i) }

// mixKey is one endpoint of the warm mix: its weight and the path
// suffixes it draws from uniformly — under /v1/orgs/{org} for a per-org
// endpoint, under /v1 for a fleet one.
type mixKey struct {
	weight   int
	suffixes []string
	fleet    bool
}

// warmKeys lists the per-org endpoints of the warm mix for an org of n
// networks: the ranking, every network's health and prediction, the
// cheap reports and the run manifest. The weights are those of
// loadgen.DefaultMix, the repository's dashboard-heavy read mix, less
// its causal share, which the fleet aggregates take (fleetKeys).
func warmKeys(n int) []mixKey {
	var nets, preds, reps []string
	for i := 0; i < n; i++ {
		nets = append(nets, "/network?network="+networkName(i))
		preds = append(preds, "/predict?network="+networkName(i))
	}
	for _, id := range reportIDs {
		reps = append(reps, "/report/"+id)
	}
	return []mixKey{{30, []string{"/rank"}, false}, {25, nets, false}, {20, preds, false}, {10, reps, false}, {5, []string{"/manifest"}, false}}
}

// fleetKeys are the fleet aggregates' share of the warm mix: the 10 of
// 100 that loadgen.DefaultMix gives causal queries, split evenly.
var fleetKeys = []mixKey{{5, []string{"/fleet/rank"}, true}, {5, []string{"/fleet/health"}, true}}

// warmPicker draws warm-mix requests. Endpoints come from a shuffled deck
// holding each endpoint as many times as its weight, so every run sends
// the mix in exact proportion: the manifest, a live snapshot that costs
// about ten memo reads, is the slowest warm read, and a random count of
// manifests would move the warm percentiles from run to run. The org and key are drawn
// uniformly, and per-org reads are addressed half by path and half by
// the X-MPA-Org header. Every answer but the manifest's (live counters)
// is checked against the pre-warm answer of the same key.
func warmPicker(orgs []string, keys []mixKey) func(*rand.Rand) *request {
	all := append(append([]mixKey(nil), keys...), fleetKeys...)
	var deck []int
	for i, k := range all {
		for j := 0; j < k.weight; j++ {
			deck = append(deck, i)
		}
	}
	next := len(deck)
	return func(r *rand.Rand) *request {
		if next == len(deck) {
			r.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
			next = 0
		}
		k := all[deck[next]]
		next++
		s := k.suffixes[r.IntN(len(k.suffixes))]
		if k.fleet {
			return &request{kind: "fleet", method: "GET", path: "/v1" + s, key: "|" + s}
		}
		o := orgs[r.IntN(len(orgs))]
		req := &request{kind: "warm", method: "GET", key: o + "|" + s}
		if r.IntN(2) == 0 {
			req.path = "/v1/orgs/" + o + s
		} else {
			req.path, req.org = "/v1"+s, o
		}
		if s == "/manifest" {
			req.key = ""
		}
		return req
	}
}

// warmPhase pre-warms every key of the mix, checks the fleet ranking
// against the offline merge, then drives the open-loop warm mix.
func (w *workload) warmPhase(ctx context.Context, t *tally, c1, c2 *conn, seed uint64) (*warmStats, error) {
	health := map[string]orgHealth{}
	for _, o := range w.warmOrgs {
		var h orgHealth
		if _, err := getJSON(ctx, c1, "/v1/orgs/"+o+"/healthz", &h); err != nil {
			return nil, err
		}
		health[o] = h
	}
	keys := warmKeys(health[w.warmOrgs[0]].Networks)

	// Pre-warm: every key once, path-addressed; the bodies become the
	// answers the timed reads must reproduce.
	rankBodies := map[string][]byte{}
	cases := map[string]int{}
	for _, o := range w.warmOrgs {
		for _, k := range keys {
			for _, s := range k.suffixes {
				body, err := getJSON(ctx, c1, "/v1/orgs/"+o+s, nil)
				if err != nil {
					return nil, err
				}
				t.answers[o+"|"+s] = body
			}
		}
		rankBodies[o] = t.answers[o+"|/rank"]
		cases[o] = health[o].Cases
	}
	fleetRank, err := getJSON(ctx, c1, "/v1/fleet/rank", nil)
	if err != nil {
		return nil, err
	}
	fleetHealth, err := getJSON(ctx, c1, "/v1/fleet/health", nil)
	if err != nil {
		return nil, err
	}
	want, err := fleetRankBody(rankBodies, cases, w.warmOrgs)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(want, fleetRank) {
		return nil, fmt.Errorf("/v1/fleet/rank differs from tenant.MergeRank over the per-org /v1/rank bodies")
	}
	t.answers["|/fleet/rank"] = fleetRank
	t.answers["|/fleet/health"] = fleetHealth

	// Settle the daemon's heap before timing: set-up and the pre-warm
	// leave it at an arbitrary point of its GC cycle, and whether a
	// full mark of a gigabyte heap then lands inside the window would
	// decide the warm tail by lottery. After a forced collection the
	// next one is due only when the warm reads themselves have
	// allocated enough to trigger it.
	gc0, err := settleHeap(ctx, c1)
	if err != nil {
		return nil, err
	}
	warm := &tally{answers: t.answers}
	start := time.Now()
	warm.openLoop(ctx, []*conn{c1, c2}, newArrivals(seed, 1, warmRate, warmPicker(w.warmOrgs, keys)), w.warmFor, nil)
	took := time.Since(start)
	t.merge(warm)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	gc1, err := daemonGCs(ctx, c1)
	if err != nil {
		return nil, err
	}
	warmLat, fleetLat := warm.latencies("warm"), warm.latencies("fleet")
	// The warm tail is printed but not a metric: on a shared 2-vCPU VM
	// its p99 follows the hypervisor's steal (3.3 ms in a quiet run, 9 ms
	// in one with 10-26% steal), so no bound a run-to-run check can hold
	// would still catch a change in the daemon. See NOTES.md.
	p99 := percentile(warmLat, 0.99)
	return &warmStats{
		metrics: map[string]float64{
			"warm_p50_ms":  percentile(warmLat, 0.5),
			"fleet_p50_ms": percentile(fleetLat, 0.5),
		},
		notes: []string{fmt.Sprintf("warm phase: %.1fs at %.0f/s over orgs %v; warm n=%d (p99 has %d beyond), fleet n=%d",
			took.Seconds(), float64(warmRate), w.warmOrgs, len(warmLat), beyond(warmLat, p99), len(fleetLat)),
			fmt.Sprintf("daemon GC cycles during the warm phase: %d, the last ending %.1fs into it", gc1.NumGC-gc0.NumGC, float64(gc1.LastGC-start.UnixNano())/1e9),
			fmt.Sprintf("warm p90 %.3f p95 %.3f p99 %.3f p99.9 %.3f ms", percentile(warmLat, 0.9), percentile(warmLat, 0.95), p99, percentile(warmLat, 0.999)),
			"warm by endpoint: " + strings.Join(warm.byEndpoint("warm"), "; ")},
	}, nil
}

// refreshStats is the refresh phase's figures.
type refreshStats struct {
	metrics   map[string]float64
	notes     []string
	batches   int
	finalRank []byte
}

// refreshPhase ingests the unseen months batch by batch on c1, each
// batch followed by the cold query set it invalidated, while c2 sends
// open-loop /v1/network probes of the same org. The probes' answers
// change with every batch, so they are checked for status only.
func (w *workload) refreshPhase(ctx context.Context, t *tally, c1, c2 *conn, seed uint64, bodies [][][]byte) (*refreshStats, error) {
	base := "/v1/orgs/" + w.ingestOrg
	var h orgHealth
	if _, err := getJSON(ctx, c1, base+"/healthz", &h); err != nil {
		return nil, err
	}
	pick := func(r *rand.Rand) *request {
		return &request{kind: "probe", method: "GET", path: base + "/network?network=" + networkName(r.IntN(h.Networks))}
	}
	rng := rand.New(rand.NewPCG(seed, 3))
	predictNet := networkName(rng.IntN(h.Networks))

	stop := make(chan struct{})
	probesDone := make(chan struct{})
	go func() {
		defer close(probesDone)
		t.openLoop(ctx, []*conn{c2}, newArrivals(seed, 2, probeRate, pick), 0, stop)
	}()
	var ingestMS, coldS []float64
	start := time.Now()
	for mi, month := range bodies {
		for bi, body := range month {
			d, resp := t.timed(ctx, c1, &request{kind: "ingest", method: "POST", path: base + "/ingest", body: body})
			ingestMS = append(ingestMS, float64(d)/1e6)
			var ir struct {
				NewMonth bool `json:"new_month"`
			}
			if err := json.Unmarshal(resp, &ir); err != nil || ir.NewMonth != (bi == 0) {
				close(stop)
				<-probesDone
				return nil, fmt.Errorf("ingest of month %d batch %d: unexpected response %.200s", mi, bi, resp)
			}
			cs := time.Now()
			t.timed(ctx, c1, &request{kind: "cold", method: "GET", path: base + "/rank"})
			for _, m := range mpa.MetricNames {
				t.timed(ctx, c1, &request{kind: "cold", method: "GET", path: base + "/causal?practice=" + m})
			}
			t.timed(ctx, c1, &request{kind: "cold", method: "GET", path: base + "/predict?network=" + predictNet})
			coldS = append(coldS, time.Since(cs).Seconds())
		}
	}
	took := time.Since(start)
	close(stop)
	<-probesDone
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	finalRank, err := getJSON(ctx, c1, base+"/rank", nil)
	if err != nil {
		return nil, err
	}
	probes := t.latencies("probe")
	p99 := percentile(probes, 0.99)
	return &refreshStats{
		metrics: map[string]float64{
			"ingest_ms":    sum(ingestMS) / float64(len(ingestMS)),
			"refresh_s":    sum(coldS),
			"probe_p99_ms": p99,
		},
		notes: []string{
			fmt.Sprintf("refresh phase: %d batches over %d month(s) into org %s in %.1fs; probes of org %s n=%d at %.0f/s, p50 %.2f ms (p99 has %d beyond)",
				len(ingestMS), len(bodies), w.ingestOrg, took.Seconds(), w.ingestOrg, len(probes), float64(probeRate), percentile(probes, 0.5), beyond(probes, p99)),
			fmt.Sprintf("probe deciles ms %v", roundAll(deciles(probes), 2)),
			fmt.Sprintf("ingest_ms per batch %v", roundAll(ingestMS, 1)),
			fmt.Sprintf("cold set s per batch %v", roundAll(coldS, 3)),
		},
		batches:   len(ingestMS),
		finalRank: finalRank,
	}, nil
}
