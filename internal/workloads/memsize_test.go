package workloads

import (
	"reflect"
	"testing"

	"slacksim/internal/cache"
	"slacksim/internal/core"
	"slacksim/internal/cpu"
)

// TestDerivedMemSizeEquivalence: sizing the functional memory from the
// program changes only host cost. Every workload simulates identically
// with the derived size and with the old flat 256 MiB image, under the
// serial reference and under the fused driver's unbounded-slack scheme
// (single-goroutine, so deterministic even when optimistic).
func TestDerivedMemSizeEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload sweep")
	}
	if raceEnabled {
		// Both drivers run every core on one goroutine, so the race
		// detector has nothing to find here; it only multiplies the
		// sweep's ~5 s by about 35. CI runs this test without -race.
		t.Skip("single-goroutine drivers; run without -race")
	}
	const threads = 4
	runs := []struct {
		name string
		run  func(*core.Machine) (*core.Result, error)
	}{
		{"serial", (*core.Machine).RunSerial},
		{"fused-SU", func(m *core.Machine) (*core.Result, error) { return m.RunFused(core.SchemeSU) }},
	}
	for _, w := range All() {
		w := w
		for _, r := range runs {
			r := r
			t.Run(w.Name+"/"+r.name, func(t *testing.T) {
				var res [2]*core.Result
				for i, size := range []uint64{256 << 20, 0} {
					m := machineWith(t, w, core.Config{
						NumCores:   threads,
						NumThreads: threads,
						CPU:        cpu.DefaultConfig(),
						Cache:      cache.DefaultConfig(threads),
						MemSize:    size,
						MaxCycles:  500_000_000,
					}, 1)
					got, err := r.run(m)
					if err != nil {
						t.Fatal(err)
					}
					if err := w.Verify(m.Image(), got.Output, 1); err != nil {
						t.Fatalf("memory size %#x: %v", m.Image().Mem.Size(), err)
					}
					res[i] = got
				}
				old, derived := res[0], res[1]
				if derived.EndTime != old.EndTime || derived.Committed != old.Committed ||
					derived.ROICycles() != old.ROICycles() || derived.Output != old.Output {
					t.Fatalf("derived size: end %d committed %d ROI %d output %q; 256 MiB: end %d committed %d ROI %d output %q",
						derived.EndTime, derived.Committed, derived.ROICycles(), derived.Output,
						old.EndTime, old.Committed, old.ROICycles(), old.Output)
				}
				if !reflect.DeepEqual(derived.CoreStats, old.CoreStats) {
					t.Errorf("core stats differ:\nderived %+v\n256 MiB %+v", derived.CoreStats, old.CoreStats)
				}
				if derived.L2Stats != old.L2Stats {
					t.Errorf("L2 stats differ:\nderived %+v\n256 MiB %+v", derived.L2Stats, old.L2Stats)
				}
			})
		}
	}
}
