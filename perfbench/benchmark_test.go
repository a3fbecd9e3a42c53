package main

import (
	"encoding/json"
	"math/rand/v2"
	"os"
	"testing"

	"mpa/internal/loadgen"
)

// The metrics the benchmark prints must be exactly the ones BENCHMARK.json
// declares, with the same units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.EndToEnd) != len(e2eUnits) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, the benchmark prints %d", len(spec.EndToEnd), len(e2eUnits))
	}
	for _, m := range spec.EndToEnd {
		if u, ok := e2eUnits[m.Name]; !ok || u != m.Unit {
			t.Errorf("end-to-end %s: printed unit %q, BENCHMARK.json %q", m.Name, u, m.Unit)
		}
	}
	if len(spec.PerLayer) != len(perLayerMetrics) {
		t.Errorf("BENCHMARK.json has %d per-layer metrics, the benchmark prints %d", len(spec.PerLayer), len(perLayerMetrics))
	}
	for i, m := range spec.PerLayer {
		if i < len(perLayerMetrics) && perLayerMetrics[i] != m.Name {
			t.Errorf("per-layer %d: printed %s, BENCHMARK.json %s", i, perLayerMetrics[i], m.Name)
		}
		if u := layerUnit(m.Name); u != m.Unit {
			t.Errorf("per-layer %s: printed unit %q, BENCHMARK.json %q", m.Name, u, m.Unit)
		}
	}
}

// The per-org weights of the warm mix are loadgen.DefaultMix's, less
// causal, and the fleet aggregates take causal's share.
func TestWarmMixIsDefaultMixLessCausal(t *testing.T) {
	mix, err := loadgen.ParseMix(loadgen.DefaultMix)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{}
	causal := 0
	for _, e := range mix {
		if e.Endpoint == "causal" {
			causal = e.Weight
			continue
		}
		want[e.Endpoint] = e.Weight
	}
	got := map[string]int{}
	for _, k := range warmKeys(5) {
		got[endpointOf("/v1"+k.suffixes[0])] += k.weight
	}
	for ep, w := range want {
		if got[ep] != w {
			t.Errorf("%s: weight %d, DefaultMix %d", ep, got[ep], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("per-org endpoints %v, DefaultMix less causal %v", got, want)
	}
	fleet := 0
	for _, k := range fleetKeys {
		fleet += k.weight
	}
	if fleet != causal {
		t.Errorf("fleet weight %d, DefaultMix causal %d", fleet, causal)
	}
}

// Every 100 draws of the warm mix send each endpoint exactly its weight,
// whatever the seed.
func TestWarmPickerSendsExactProportions(t *testing.T) {
	keys := warmKeys(5)
	total := 0
	want := map[string]int{}
	for _, k := range append(append([]mixKey(nil), keys...), fleetKeys...) {
		total += k.weight
		name := endpointOf("/v1" + k.suffixes[0])
		want[name] += k.weight
	}
	for seed := uint64(1); seed <= 3; seed++ {
		pick := warmPicker([]string{"a", "b"}, keys)
		r := rand.New(rand.NewPCG(seed, 1))
		got := map[string]int{}
		for i := 0; i < 3*total; i++ {
			got[endpointOf(pick(r).path)]++
		}
		for name, w := range want {
			if got[name] != 3*w {
				t.Errorf("seed %d: %s sent %d times in %d draws, want %d", seed, name, got[name], 3*total, 3*w)
			}
		}
	}
}
