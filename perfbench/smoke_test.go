package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDeclaredMetrics checks BENCHMARK.json against the code: the same
// workloads, and the same end-to-end and per-layer metrics with the same
// units and well-formed names.
func TestDeclaredMetrics(t *testing.T) {
	d := readDeclared(t)
	var names []string
	for _, w := range d.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("BENCHMARK.json workloads %v, code %v", names, workloadNames())
	}
	for kind, c := range map[string]struct {
		declared []declaredMetric
		code     map[string]string
	}{"end-to-end": {d.EndToEnd, endToEnd}, "per-layer": {d.PerLayer, perLayer}} {
		seen := map[string]bool{}
		for _, m := range c.declared {
			if unit, ok := c.code[m.Name]; !ok || unit != m.Unit {
				t.Errorf("%s metric %s [%s] is not reported with that unit", kind, m.Name, m.Unit)
			}
			if !metricName.MatchString(m.Name) {
				t.Errorf("metric name %q is malformed", m.Name)
			}
			seen[m.Name] = true
		}
		for name := range c.code {
			if !seen[name] {
				t.Errorf("%s metric %s is not declared", kind, name)
			}
		}
	}
}

// TestSmoke runs every workload end to end for a fraction of a second,
// untraced and traced, and checks that the result line holds exactly the
// metrics BENCHMARK.json declares for the run's kind, in their units.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	d := readDeclared(t)
	units := map[string]map[string]string{"0": {}, "1": {}}
	for _, m := range d.EndToEnd {
		units["0"][m.Name] = m.Unit
	}
	for _, m := range d.PerLayer {
		units["1"][m.Name] = m.Unit
	}
	for _, w := range workloads() {
		for _, trace := range []string{"0", "1"} {
			var stdout, stderr bytes.Buffer
			code := run([]string{"--workload", w.name, "--seed", "3", "--seconds", "0.5", "--trace", trace}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("%s trace %s: exit %d: %s", w.name, trace, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res struct {
				Correct   *bool             `json:"correct"`
				Attempted int64             `json:"attempted"`
				Failed    *int64            `json:"failed"`
				Metrics   map[string]metric `json:"metrics"`
			}
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&res); err != nil {
				t.Fatalf("%s trace %s: result line: %v", w.name, trace, err)
			}
			if res.Correct == nil || !*res.Correct || res.Failed == nil || *res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace %s: result %+v", w.name, trace, res)
			}
			if len(res.Metrics) != len(units[trace]) {
				t.Errorf("%s trace %s: %d metrics, %d declared", w.name, trace, len(res.Metrics), len(units[trace]))
			}
			for name, m := range res.Metrics {
				if want, ok := units[trace][name]; !ok || want != m.Unit {
					t.Errorf("%s trace %s: metric %s [%s] is not declared with that unit", w.name, trace, name, m.Unit)
				}
			}
		}
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "nope", "--seconds", "1"}, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
		t.Fatalf("exit %d, stdout %q", code, stdout.String())
	}
}
