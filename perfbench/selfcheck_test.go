package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"slacksim/internal/asm"
	"slacksim/internal/core"
	"slacksim/internal/workloads"
)

var (
	metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitName   = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestMetricNames checks every metric's name and unit, and that
// BENCHMARK.json declares exactly the workloads and metrics the program
// reports.
func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(d.Name) || !unitName.MatchString(d.Unit) {
			t.Errorf("metric %q unit %q: malformed", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %q: better = %q", d.Name, d.Better)
		}
		if seen[d.Name] {
			t.Errorf("metric %q declared twice", d.Name)
		}
		seen[d.Name] = true
	}

	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range decl.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, program has %s", got, want)
	}
	same := func(what string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", decl.EndToEnd, endToEnd)
	same("per_layer", decl.PerLayer, perLayer)
}

// TestCellsResolve checks that every cell has a known driver, that auto
// cells follow the program's own rule, and that every target builds.
func TestCellsResolve(t *testing.T) {
	for _, name := range workloadNames() {
		cells := benchWorkloads[name]
		if len(cells) == 0 {
			t.Errorf("%s: no cells", name)
		}
		for _, c := range cells {
			switch c.Driver {
			case "fused", "parallel":
				if c.Driver != autoDriver(c.HostCores) {
					t.Errorf("%s: driver %s, auto resolves to %s", c.ID(), c.Driver, autoDriver(c.HostCores))
				}
			case "sharded", "remote":
				if c.Shards < 2 {
					t.Errorf("%s: %d shards", c.ID(), c.Shards)
				}
			default:
				t.Errorf("%s: unknown driver", c.ID())
			}
			if c.HostCores < 1 || c.HostCores > maxProcs {
				t.Errorf("%s: %d host cores", c.ID(), c.HostCores)
			}
			w, err := workloads.Get(c.Workload)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := asm.Assemble(w.Source(scale), asm.Options{})
			if err != nil {
				t.Fatalf("%s: %v", c.ID(), err)
			}
			if _, err := core.NewMachine(prog, c.target()); err != nil {
				t.Errorf("%s: %v", c.ID(), err)
			}
		}
	}
}

// TestSmokeRound runs each workload for one untraced and one traced
// round after the warm-up and requires a correct result with no failed
// simulation and every per-layer metric reported.
func TestSmokeRound(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload's cell set three times")
	}
	twoRounds := func(rounds []*round, _ time.Duration) bool { return len(rounds) >= 2 }
	for _, name := range workloadNames() {
		o := options{workload: name, seed: 1, seconds: 1, trace: true, out: t.TempDir()}
		inv, err := invoke(o, twoRounds)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var out bytes.Buffer
		if err := inv.report(&out, o); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("%s: last line: %v", name, err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Errorf("%s: correct=%v failed=%d of %d\n%s", name, res.Correct, res.Failed, res.Attempted, out.String())
		}
		for _, d := range perLayer {
			if _, ok := res.Metrics[d.Name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", name, d.Name)
			}
		}
	}
}
