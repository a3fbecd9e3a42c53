package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strings"
	"sync"
	"time"

	"mpa"
	"mpa/internal/cache"
	"mpa/internal/ciscoios"
	"mpa/internal/confdiff"
	"mpa/internal/confmodel"
	"mpa/internal/dataset"
	"mpa/internal/ingest"
	"mpa/internal/junos"
	"mpa/internal/netmodel"
	"mpa/internal/obs"
	"mpa/internal/osp"
	"mpa/internal/practices"
	"mpa/internal/serve"
	"mpa/internal/tenant"
)

// The traced run calls each layer's public functions in-process, under
// spans recorded by this file, in three parts:
//
//  1. a layer sweep over the ingesting org's organization: generate,
//     render, parse, diff, practice inference with and without the
//     cache, and the dataset build;
//  2. an in-process replica of the workload — the daemon's set-up
//     (tenant.Load), its warm reads through serve's handler, and its
//     refresh batches through Framework.Ingest and the cold query set —
//     run once untraced and once traced; the difference of the two
//     end-to-end times is the tracing overhead, and the traced pass's
//     root self time is the time no layer accounts for;
//  3. micro-measurements on the replica's warm state: handler versus
//     direct framework calls, loopback HTTP, memo hits alone and under a
//     cold query, the fleet merge and per-request observation.

// cacheStages maps the metric names' stage labels to the cache stages.
var cacheStages = []struct{ label, stage string }{
	{"parse", "parse"}, {"diff", "confdiff"}, {"network", "practices"}, {"dataset", "dataset"}, {"query", "query"},
}

type cacheCounts map[string][2]int64 // label -> hits, misses

func readCacheCounts() cacheCounts {
	out := cacheCounts{}
	for _, s := range cacheStages {
		out[s.label] = [2]int64{
			obs.GetCounter("cache." + s.stage + ".mem_hits").Value(),
			obs.GetCounter("cache." + s.stage + ".mem_misses").Value(),
		}
	}
	return out
}

func (c cacheCounts) minus(o cacheCounts) cacheCounts {
	out := cacheCounts{}
	for k, v := range c {
		out[k] = [2]int64{v[0] - o[k][0], v[1] - o[k][1]}
	}
	return out
}

func (c cacheCounts) String() string {
	var b strings.Builder
	for _, s := range cacheStages {
		fmt.Fprintf(&b, " %s %d/%d", s.label, c[s.label][0], c[s.label][1])
	}
	return "hits/misses:" + b.String()
}

// ospParams are the generator parameters `mpa serve` uses for cfg.
func ospParams(cfg mpa.Config) osp.Params {
	p := osp.Default(cfg.Seed)
	p.Networks, p.Start, p.End = cfg.Networks, cfg.Start, cfg.End
	return p
}

// serveCache is the pipeline cache `mpa serve` enables at its default
// flags: in memory, default bound.
var serveCache = mpa.CacheConfig{Enabled: true, MaxEntries: cache.DefaultMaxEntries}

// layers collects the per-layer figures.
type layers map[string]float64

// runTraced runs the traced measurement for one workload.
func runTraced(ctx context.Context, w *workload, outDir string, seed uint64) (result, error) {
	tr := newTracer()
	m := layers{}
	cfg := serveConfig(w.seedOf(w.ingestOrg))
	base, err := sweep(tr, cfg, m)
	if err != nil {
		return result{}, err
	}
	bodies, err := ingestBodies(cfg, w.months, w.batches)
	if err != nil {
		return result{}, err
	}
	// The last batch is held back: applied after the replica, it
	// invalidates the memo so a cold query can race warm hits.
	last := bodies[len(bodies)-1]
	held := last[len(last)-1]
	bodies[len(bodies)-1] = last[:len(last)-1]
	if len(bodies[len(bodies)-1]) == 0 {
		bodies = bodies[:len(bodies)-1]
	}

	freeMemory()
	pass0, err := w.replica(ctx, nil, base, bodies, seed)
	if err != nil {
		return result{}, err
	}
	untraced := pass0.e2e
	pass0 = nil
	freeMemory()

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	c0 := readCacheCounts()
	peak := startHeapSampler()
	rep, err := w.replica(ctx, tr, base, bodies, seed)
	heapPeak := peak()
	if err != nil {
		return result{}, err
	}
	runtime.ReadMemStats(&ms1)
	cc := readCacheCounts().minus(c0)

	m["replica.untraced_ms"] = float64(untraced) / 1e6
	m["replica.traced_ms"] = float64(rep.e2e) / 1e6
	m["trace.overhead_ms"] = float64(rep.e2e-untraced) / 1e6
	m["unaccounted_ms"] = float64(tr.selfTimes()[rep.root]) / 1e6
	m["trace.spans"] = float64(len(tr.spans) - rep.root) // the replica's, root included
	m["trace.span_ns"] = spanCostNS()
	m["go.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	m["go.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	m["go.heap_peak_mib"] = heapPeak / (1 << 20)
	for _, s := range cacheStages {
		h, mi := cc[s.label][0], cc[s.label][1]
		m["cache."+s.label+".hits"] = float64(h)
		m["cache."+s.label+".misses"] = float64(mi)
		ratio := 0.0
		if h+mi > 0 {
			ratio = float64(h) / float64(h+mi)
		}
		m["cache."+s.label+".hit_ratio"] = ratio
	}
	m["tenant.load_s"] = median(tr.durations("tenant.load")) / 1e3
	m["ingest.decode_ms"] = median(tr.durations("ingest.decode"))
	m["ingest.compile_ms"] = median(tr.durations("ingest.compile"))
	m["ingest.apply_ms"] = median(tr.durations("ingest.apply"))
	m["ingest.networks_touched"] = median(rep.touched)
	m["mi.rank_ms"] = median(tr.durations("mi.rank"))
	qed := tr.durations("qed.causal")
	m["qed.run_ms"] = median(qed)
	var perBatch []float64
	for i := 0; i+len(mpa.MetricNames) <= len(qed); i += len(mpa.MetricNames) {
		perBatch = append(perBatch, sum(qed[i:i+len(mpa.MetricNames)]))
	}
	m["qed.total_ms"] = median(perBatch)
	m["ml.train2_ms"] = median(tr.durations("ml.train2"))
	m["ml.train5_ms"] = median(tr.durations("ml.train5"))

	if err := w.micro(tr, rep, held, m); err != nil {
		return result{}, err
	}

	fmt.Fprintf(os.Stderr, "  traced replica of %s: %.1f ms traced, %.1f ms untraced\n", w.name, m["replica.traced_ms"], m["replica.untraced_ms"])
	fmt.Fprintf(os.Stderr, "  %-22s %7s %12s %12s\n", "layer", "calls", "total_ms", "self_ms")
	for _, r := range tr.layers(rep.root) {
		fmt.Fprintf(os.Stderr, "  %-22s %7d %12.1f %12.1f\n", r.name, r.calls, float64(r.total)/1e6, float64(r.self)/1e6)
	}
	fmt.Fprintf(os.Stderr, "  %-22s %7s %12s %12.1f\n", "(unaccounted)", "", "", m["unaccounted_ms"])
	for _, n := range rep.notes {
		fmt.Fprintln(os.Stderr, "  "+n)
	}
	tracePath := filepath.Join(outDir, "trace-"+w.name+".json")
	if err := tr.writeChrome(tracePath); err != nil {
		return result{}, err
	}
	fmt.Fprintln(os.Stderr, "  chrome trace:", tracePath)

	if len(m) != len(perLayerMetrics) {
		return result{}, fmt.Errorf("traced run produced %d per-layer metrics, want %d", len(m), len(perLayerMetrics))
	}
	for _, name := range perLayerMetrics {
		if _, ok := m[name]; !ok {
			return result{}, fmt.Errorf("traced run produced no %s", name)
		}
	}
	res := result{Correct: rep.t.problem == nil, Attempted: len(rep.t.outcomes), Failed: rep.t.failed, Metrics: map[string]metric{}}
	if rep.t.problem != nil {
		fmt.Fprintln(os.Stderr, "perfbench: CHECK FAILED:", rep.t.problem)
	}
	for name, v := range m {
		res.Metrics[name] = metric{Value: v, Unit: layerUnit(name)}
	}
	return res, nil
}

// perLayerMetrics is every figure a traced run prints, in
// BENCHMARK.json's order; a run that produced a different set fails.
var perLayerMetrics = []string{
	"osp.generate_s", "render.us_per_config", "parse.cisco_us_per_snapshot",
	"parse.junos_us_per_snapshot", "parse.snapshots", "confdiff.us_per_pair",
	"confdiff.pairs", "practices.analyze_s", "practices.analyze_nocache_s",
	"practices.alloc_mib", "cache.parse.hits", "cache.parse.misses",
	"cache.parse.hit_ratio", "cache.diff.hits", "cache.diff.misses",
	"cache.diff.hit_ratio", "cache.network.hits", "cache.network.misses",
	"cache.network.hit_ratio", "cache.dataset.hits", "cache.dataset.misses",
	"cache.dataset.hit_ratio", "cache.query.hits", "cache.query.misses",
	"cache.query.hit_ratio", "dataset.build_ms", "mi.rank_ms", "qed.run_ms",
	"qed.total_ms", "ml.train2_ms", "ml.train5_ms", "ingest.decode_ms",
	"ingest.compile_ms", "ingest.apply_ms", "ingest.networks_touched",
	"query.hit_us", "query.hit_under_cold_ms", "serve.handler_us.rank",
	"serve.handler_us.network", "serve.handler_us.predict",
	"serve.handler_us.report", "serve.handler_us.manifest",
	"serve.overhead_us.rank", "serve.overhead_us.network",
	"serve.overhead_us.predict", "serve.overhead_us.report",
	"serve.overhead_us.manifest", "http.overhead_us", "tenant.load_s",
	"tenant.merge_rank_us", "tenant.merge_health_us", "obs.observe_ns",
	"go.gc_cycles", "go.gc_pause_ms", "go.heap_peak_mib", "unaccounted_ms",
	"replica.traced_ms", "replica.untraced_ms", "trace.overhead_ms",
	"trace.spans", "trace.span_ns",
}

// layerUnit derives a per-layer metric's unit from the unit word in its
// name (osp.generate_s, render.us_per_config, go.heap_peak_mib); names
// without one are counts.
func layerUnit(name string) string {
	if strings.HasSuffix(name, "hit_ratio") {
		return "ratio"
	}
	units := map[string]string{"s": "s", "ms": "ms", "us": "us", "ns": "ns", "mib": "MiB"}
	for _, tok := range strings.FieldsFunc(name, func(r rune) bool { return r == '.' || r == '_' }) {
		if u, ok := units[tok]; ok {
			return u
		}
	}
	return "count"
}

// spanCostNS measures what one begin/end pair costs, so the tracing
// overhead can be bounded when the two passes' difference is lost in
// run-to-run noise.
func spanCostNS() float64 {
	const n = 100000
	t := newTracer()
	t.spans = make([]span, 0, n)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin("x", -1, 0))
	}
	return float64(time.Since(t0)) / n
}

func freeMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// startHeapSampler samples the live heap every 10 ms until the returned
// function is called, which returns the peak in bytes.
func startHeapSampler() func() float64 {
	stop := make(chan struct{})
	done := make(chan float64)
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		var peak float64
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := float64(s[0].Value.Uint64()); v > peak {
				peak = v
			}
			select {
			case <-stop:
				done <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return func() float64 {
		close(stop)
		return <-done
	}
}

// sweep measures the pipeline layers below the framework on cfg's
// organization and returns it, to compile ingest batches against.
func sweep(tr *tracer, cfg mpa.Config, m layers) (*osp.OSP, error) {
	root := tr.begin("sweep", -1, 0)
	defer tr.end(root)
	p := ospParams(cfg)
	var o *osp.OSP
	m["osp.generate_s"] = tr.run("osp.generate", root, func() { o = osp.Generate(p) }).Seconds()

	dialects := map[netmodel.Vendor]confmodel.ScratchParser{
		netmodel.VendorCisco: ciscoios.Dialect{}, netmodel.VendorJuniper: junos.Dialect{},
	}
	renderers := map[netmodel.Vendor]confmodel.Dialect{
		netmodel.VendorCisco: ciscoios.Dialect{}, netmodel.VendorJuniper: junos.Dialect{},
	}
	sc := confmodel.NewScratch()
	parseTime := map[netmodel.Vendor]time.Duration{}
	parsed := map[netmodel.Vendor]int{}
	var diffTime time.Duration
	var pairs int
	var latest []*confmodel.Config
	var latestVendor []netmodel.Vendor
	var diffBuf []confdiff.StanzaChange
	for _, nw := range o.Inventory.Networks {
		var cfgs [][]*confmodel.Config
		var err error
		tr.run("parse", root, func() {
			for _, dev := range nw.Devices {
				d := dialects[dev.Vendor]
				var hist []*confmodel.Config
				for _, s := range o.Archive.Snapshots(dev.Name) {
					t0 := time.Now()
					c, perr := d.ParseScratch(s.Text, sc)
					parseTime[dev.Vendor] += time.Since(t0)
					if perr != nil {
						err = perr
						return
					}
					parsed[dev.Vendor]++
					hist = append(hist, c)
				}
				cfgs = append(cfgs, hist)
				if len(hist) > 0 {
					latest = append(latest, hist[len(hist)-1])
					latestVendor = append(latestVendor, dev.Vendor)
				}
			}
		})
		if err != nil {
			return nil, fmt.Errorf("parse %s: %w", nw.Name, err)
		}
		tr.run("confdiff", root, func() {
			for _, hist := range cfgs {
				for i := 1; i < len(hist); i++ {
					t0 := time.Now()
					diffBuf = confdiff.AppendDiff(diffBuf[:0], hist[i-1], hist[i])
					diffTime += time.Since(t0)
					pairs++
				}
			}
		})
	}
	var renderTime time.Duration
	tr.run("render", root, func() {
		for i, c := range latest {
			t0 := time.Now()
			_ = renderers[latestVendor[i]].Render(c)
			renderTime += time.Since(t0)
		}
	})
	perUS := func(d time.Duration, n int) float64 { return float64(d) / 1e3 / float64(max(n, 1)) }
	m["render.us_per_config"] = perUS(renderTime, len(latest))
	m["parse.cisco_us_per_snapshot"] = perUS(parseTime[netmodel.VendorCisco], parsed[netmodel.VendorCisco])
	m["parse.junos_us_per_snapshot"] = perUS(parseTime[netmodel.VendorJuniper], parsed[netmodel.VendorJuniper])
	m["parse.snapshots"] = float64(parsed[netmodel.VendorCisco] + parsed[netmodel.VendorJuniper])
	m["confdiff.us_per_pair"] = perUS(diffTime, pairs)
	m["confdiff.pairs"] = float64(pairs)
	latest = nil

	window := p.Months()
	var err error
	freeMemory()
	m["practices.analyze_nocache_s"] = tr.run("practices.analyze_nocache", root, func() {
		_, err = practices.NewEngine(o.Inventory, o.Archive).Analyze(window)
	}).Seconds()
	if err != nil {
		return nil, err
	}
	freeMemory()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e := practices.NewEngine(o.Inventory, o.Archive)
	e.SetCache(serveCache)
	var analysis map[string][]practices.MonthAnalysis
	m["practices.analyze_s"] = tr.run("practices.analyze", root, func() {
		analysis, err = e.Analyze(window)
	}).Seconds()
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&after)
	m["practices.alloc_mib"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	key, ok := e.AnalysisKey()
	m["dataset.build_ms"] = float64(tr.run("dataset.build", root, func() {
		dataset.BuildCached(analysis, o.Tickets, nil, cache.New("dataset", serveCache), key, ok)
	})) / 1e6
	return o, nil
}

// replicaState is what a replica pass leaves for the micro-measurements.
type replicaState struct {
	root    int
	e2e     time.Duration
	reg     *tenant.Registry
	handler http.Handler
	t       *tally
	touched []float64
	notes   []string
}

// serveOnce sends r through the in-process handler.
func serveOnce(h http.Handler, r *request) (int, []byte) {
	var body io.Reader
	if r.body != nil {
		body = bytes.NewReader(r.body)
	}
	req := httptest.NewRequest(r.method, r.path, body)
	if r.org != "" {
		req.Header.Set("X-MPA-Org", r.org)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// replica runs the workload in-process: tenant.Load as the daemon does
// at start-up, then the warm and refresh phases in the workload's order.
func (w *workload) replica(ctx context.Context, tr *tracer, base *osp.OSP, bodies [][][]byte, seed uint64) (*replicaState, error) {
	start := time.Now()
	st := &replicaState{root: tr.begin("replica:"+w.name, -1, 0), t: &tally{answers: map[string][]byte{}}}
	specs := make([]tenant.OrgSpec, len(w.orgs))
	for i, o := range w.orgs {
		specs[i] = tenant.OrgSpec{Name: o.name, Seed: o.seed}
	}
	baseCfg := serveConfig(1) // the CLI default -seed; each org spec overrides it
	baseCfg.Cache = serveCache
	var err error
	c0 := readCacheCounts()
	tr.run("tenant.load", st.root, func() { st.reg, err = tenant.Load(specs, baseCfg) })
	if err != nil {
		return nil, err
	}
	if tr != nil {
		st.notes = append(st.notes, "cache after set-up: "+readCacheCounts().minus(c0).String())
	}
	st.handler = serve.NewSharded(st.reg, serve.Config{}).Handler()
	call := func(parent int, r *request) []byte {
		id := tr.begin("serve."+endpointOf(r.path), parent, 0)
		t0 := time.Now()
		status, body := serveOnce(st.handler, r)
		lat := float64(time.Since(t0)) / 1e6
		tr.end(id)
		cerr := st.t.check(r, status, body, nil)
		st.t.add(outcome{kind: r.kind, latMS: lat, lagMS: -1, ok: cerr == nil}, cerr)
		return body
	}
	warm := func() {
		keys := warmKeys(w.networks(st.reg))
		pre := tr.begin("prewarm", st.root, 0)
		for _, o := range w.warmOrgs {
			for _, k := range keys {
				for _, s := range k.suffixes {
					st.t.answers[o+"|"+s] = call(pre, &request{kind: "prewarm", method: "GET", path: "/v1/orgs/" + o + s})
				}
			}
		}
		for _, s := range []string{"/fleet/rank", "/fleet/health"} {
			st.t.answers["|"+s] = call(pre, &request{kind: "prewarm", method: "GET", path: "/v1" + s})
		}
		tr.end(pre)
		runtime.GC() // as the e2e run settles the daemon's heap
		arr := newArrivals(seed, 1, warmRate, warmPicker(w.warmOrgs, keys))
		n := int(warmRate * w.warmFor.Seconds())
		for i := 0; i < n && ctx.Err() == nil; i++ {
			_, r := arr.take()
			call(st.root, r)
		}
	}
	refresh := func() error {
		f := st.org(w.ingestOrg)
		rng := rand.New(rand.NewPCG(seed, 3))
		predictNet := networkName(rng.IntN(w.networks(st.reg)))
		// arch follows the org's archive batch by batch, so each batch
		// compiles against the history Framework.Ingest validates it
		// against. Framework.Ingest compiles the batch again inside
		// ingest.apply: the compile time is in both spans.
		arch := base.Archive.Clone()
		k := 0
		for _, month := range bodies {
			for _, body := range month {
				var u *mpa.IngestUpdate
				var comp *ingest.Compiled
				var err error
				tr.run("ingest.decode", st.root, func() { u, err = ingest.Decode(bytes.NewReader(body)) })
				if err == nil {
					tr.run("ingest.compile", st.root, func() { comp, err = u.Compile(base.Inventory, arch) })
				}
				var res *mpa.IngestResult
				if err == nil {
					tr.run("ingest.apply", st.root, func() { res, err = f.Ingest(u) })
				}
				if err == nil {
					for _, s := range comp.Snapshots {
						if err = arch.Record(s); err != nil {
							break
						}
					}
				}
				st.t.add(outcome{kind: "ingest", ok: err == nil}, err)
				if err != nil {
					return fmt.Errorf("ingest batch %d: %w", k, err)
				}
				st.touched = append(st.touched, float64(len(res.Networks)))
				window := f.Window()
				month := window[len(window)-1]
				cerr := func(err error) { st.t.add(outcome{kind: "cold", ok: err == nil}, err) }
				tr.run("mi.rank", st.root, func() { f.RankPracticesCached() })
				for _, metric := range mpa.MetricNames {
					tr.run("qed.causal", st.root, func() { _, err = f.AnalyzeCausalCached(metric) })
					cerr(err)
				}
				tr.run("ml.train2", st.root, func() { _, err = f.HealthModelCached(mpa.TwoClass) })
				cerr(err)
				tr.run("ml.train5", st.root, func() { _, err = f.HealthModelCached(mpa.FiveClass) })
				cerr(err)
				tr.run("query.predict", st.root, func() { _, err = f.PredictNetworkMonth(predictNet, month) })
				cerr(err)
				k++
				if tr != nil {
					st.notes = append(st.notes, fmt.Sprintf("cache after batch %d: %s", k, readCacheCounts().minus(c0)))
				}
			}
		}
		return nil
	}
	if w.warmFirst {
		warm()
		err = refresh()
	} else {
		err = refresh()
		warm()
	}
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	tr.end(st.root)
	st.e2e = time.Since(start)
	return st, nil
}

func (w *workload) networks(reg *tenant.Registry) int {
	o, _ := reg.Get(w.orgs[0].name)
	return len(o.F.Inventory().Networks)
}

func (st *replicaState) org(name string) *mpa.Framework {
	o, _ := st.reg.Get(name)
	return o.F
}

// timeEach returns the median of n individually timed calls of f.
func timeEach(n int, f func()) time.Duration {
	ds := make([]float64, n)
	for i := range ds {
		t0 := time.Now()
		f()
		ds[i] = float64(time.Since(t0))
	}
	return time.Duration(median(ds))
}

// micro runs the micro-measurements on the traced replica's warm state.
func (w *workload) micro(tr *tracer, st *replicaState, held []byte, m layers) error {
	root := tr.begin("micro", -1, 0)
	defer tr.end(root)
	orgName := w.warmOrgs[0]
	f := st.org(orgName)
	window := f.Window()
	month := window[len(window)-1]
	net := networkName(0)
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }

	// Handler versus the direct framework call behind it, warm.
	direct := map[string]func(){
		"rank":    func() { f.RankPracticesCached() },
		"network": func() { _, _ = f.NetworkHealthCached(net, month) },
		"predict": func() {
			_, _ = f.PredictNetworkMonth(net, month)
			_, _ = f.HealthModelCached(mpa.TwoClass)
			_, _ = f.HealthModelCached(mpa.FiveClass)
		},
		"report":   func() { f.ExperimentCached(reportIDs[0]) },
		"manifest": func() { f.Manifest() },
	}
	paths := map[string]string{
		"rank": "/rank", "network": "/network?network=" + net, "predict": "/predict?network=" + net,
		"report": "/report/" + reportIDs[0], "manifest": "/manifest",
	}
	const iters = 300
	for _, ep := range []string{"rank", "network", "predict", "report", "manifest"} {
		r := &request{method: "GET", path: "/v1/orgs/" + orgName + paths[ep]}
		var hd, dd time.Duration
		tr.run("micro.serve."+ep, root, func() {
			hd = timeEach(iters, func() {
				if code, _ := serveOnce(st.handler, r); code != http.StatusOK {
					st.t.add(outcome{kind: "micro", ok: false}, fmt.Errorf("%s: status %d", r.path, code))
				}
			})
			dd = timeEach(iters, direct[ep])
		})
		m["serve.handler_us."+ep] = us(hd)
		m["serve.overhead_us."+ep] = us(hd - dd)
	}

	// Loopback HTTP on top of the handler.
	ts := httptest.NewServer(st.handler)
	client := ts.Client()
	var hd time.Duration
	var herr error
	tr.run("micro.http", root, func() {
		hd = timeEach(iters, func() {
			resp, err := client.Get(ts.URL + "/v1/orgs/" + orgName + "/rank")
			if err != nil {
				herr = err
				return
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		})
	})
	ts.Close()
	if herr != nil {
		return herr
	}
	m["http.overhead_us"] = us(hd) - m["serve.handler_us.rank"]

	m["query.hit_us"] = us(timeEach(2000, func() { f.RankPracticesCached() }))

	// Fleet merge over the registry's partials.
	var rparts []tenant.RankPartial
	var hparts []tenant.HealthPartial
	for _, o := range st.reg.Orgs() {
		rparts = append(rparts, tenant.RankPartialOf(o))
		hparts = append(hparts, tenant.HealthPartialOf(o))
	}
	tr.run("micro.tenant", root, func() {
		m["tenant.merge_rank_us"] = us(timeEach(1000, func() { _, _ = tenant.MergeRank(rparts) }))
		m["tenant.merge_health_us"] = us(timeEach(1000, func() { _, _ = tenant.MergeHealth(hparts) }))
	})

	// Per-request observation: the global and per-endpoint latency
	// series, a status counter and the flight-recorder entry.
	hist := obs.GetHistogram("perfbench.latency_ms", 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 1000, 5000)
	lh1, lh2 := obs.GetLogHistogram("perfbench.latency_ns.rank"), obs.GetLogHistogram("perfbench.tenant.latency_ns.rank")
	status := obs.GetCounter("perfbench.status.rank.2xx")
	rec := obs.NewRecorder(obs.RecorderConfig{})
	sp := obs.NewRoot("serve:rank")
	sp.Start("rank_practices").End()
	sp.End()
	tr.run("micro.obs", root, func() {
		const chunk = 1000
		per := make([]float64, 20)
		for i := range per {
			t0 := time.Now()
			for j := 0; j < chunk; j++ {
				hist.Observe(0.8)
				lh1.Observe(8e5)
				lh2.Observe(8e5)
				status.Add(1)
				rec.Record(sp, obs.RequestMeta{Status: 200, Tenant: orgName})
			}
			per[i] = float64(time.Since(t0)) / chunk
		}
		m["obs.observe_ns"] = median(per)
	})

	// A warm per-network hit while a cold whole-org query holds the
	// memo: apply the held-back batch (it invalidates the org-wide
	// entries but not the untouched networks'), then time hits on
	// untouched networks while another goroutine runs the cold causal
	// analyses.
	fi := st.org(w.ingestOrg)
	iw := fi.Window()
	imonth := iw[len(iw)-1]
	n := w.networks(st.reg)
	for i := 0; i < n; i++ {
		_, _ = fi.NetworkHealthCached(networkName(i), imonth)
	}
	u, err := ingest.Decode(bytes.NewReader(held))
	if err != nil {
		return err
	}
	var res *mpa.IngestResult
	tr.run("micro.ingest_held", root, func() { res, err = fi.Ingest(u) })
	if err != nil {
		return err
	}
	iw = fi.Window()
	if last := iw[len(iw)-1]; last != imonth {
		return fmt.Errorf("held-back batch moved the window to %s", last)
	}
	touched := map[string]bool{}
	for _, nw := range res.Networks {
		touched[nw] = true
	}
	var probe []string
	for i := 0; i < n; i++ {
		if !touched[networkName(i)] {
			probe = append(probe, networkName(i))
		}
	}
	if len(probe) == 0 {
		return fmt.Errorf("held-back batch touched every network; no warm hit to time")
	}
	var hits []float64
	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		id := tr.begin("micro.cold_causal", root, 1)
		for _, metric := range mpa.MetricNames {
			_, _ = fi.AnalyzeCausalCached(metric)
		}
		tr.end(id)
	}()
	id := tr.begin("micro.hits_under_cold", root, 0)
	for i := 0; ; i++ {
		select {
		case <-done:
		default:
			t0 := time.Now()
			_, _ = fi.NetworkHealthCached(probe[i%len(probe)], imonth)
			hits = append(hits, float64(time.Since(t0))/1e6)
			time.Sleep(200 * time.Microsecond)
			continue
		}
		break
	}
	tr.end(id)
	wg.Wait()
	m["query.hit_under_cold_ms"] = percentile(hits, 0.99)
	st.notes = append(st.notes, fmt.Sprintf("hits under a cold causal sweep: n=%d p50 %.3f ms p99 %.3f ms; %d networks untouched by the held-back batch",
		len(hits), percentile(hits, 0.5), percentile(hits, 0.99), len(probe)))
	return nil
}
