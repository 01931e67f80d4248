// Command perfbench is the repository benchmark: it times whole
// simulations of fixed workload cell sets from the outside, one public
// call at a time, and checks every run against the serial engine.
//
//	go run . --workload cc-h1 --seed 1 --seconds 25 --trace 0
//
// The load is closed-loop: one simulation at a time from one process, at
// GOMAXPROCS <= 2, with at most two loopback connections. With --trace 0
// it reports the end-to-end metrics of untraced rounds; with --trace 1 it
// alternates untraced and traced rounds (metrics registry, engine trace
// and benchmark-side spans attached) and reports the per-layer metrics,
// writing the span file under --out. The last line of standard output is
// the JSON result. README.md documents the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"slacksim/internal/stats"
)

// minCoverage is the outside ledger check: the timed phases of a round
// must account for this share of its wall time, or the benchmark is
// hiding untimed work of its own.
const minCoverage = 0.95

// obsBudget is the ROADMAP's budget for the cost of observing a run.
const obsBudget = 0.05

// maxProcs caps the process's host cores (closed loop on a 2-CPU host).
const maxProcs = 2

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "benchmark workload: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", 1, "seed for the order of cells within each round")
	flag.IntVar(&o.seconds, "seconds", 25, "measured seconds (whole rounds run until this much time has passed)")
	flag.IntVar(&traceFlag, "trace", 0, "1 = report per-layer metrics from traced rounds; 0 = end-to-end metrics")
	flag.StringVar(&o.out, "out", ".bench_build/out", "directory for the span file and the full result record")
	flag.Parse()
	if _, ok := benchWorkloads[o.workload]; !ok {
		fatalf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fatalf("need --seconds >= 1 and --trace 0 or 1")
	}
	o.trace = traceFlag == 1
	inv, err := invoke(o, measureFor(time.Duration(o.seconds)*time.Second))
	if err != nil {
		fatalf("%v", err)
	}
	if err := inv.report(os.Stdout, o); err != nil {
		fatalf("%v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

// round is one pass over a workload's cell set, in seeded order.
type round struct {
	traced  bool
	wall    time.Duration
	sims    []*outcome
	gcCount uint32
	gcPause time.Duration
}

// setup is the round's assemble + NewMachine + Init time.
func (r *round) setup() time.Duration {
	var sum time.Duration
	for _, o := range r.sims {
		sum += o.setup()
	}
	return sum
}

// coverage is the share of the round's wall time its timed phases cover.
func (r *round) coverage() float64 {
	var sum time.Duration
	for _, o := range r.sims {
		for _, d := range o.phase {
			sum += d
		}
	}
	return sum.Seconds() / r.wall.Seconds()
}

// invocation is everything one benchmark run measured.
type invocation struct {
	cells   []cell
	warmup  *round
	rounds  []*round // measured rounds, warm-up excluded
	spans   *spanLog // traced rounds' spans (nil untraced)
	procs   int
	numCPU  int
	elapsed time.Duration
}

// stopRule decides, after each measured round, whether to measure more.
type stopRule func(rounds []*round, elapsed time.Duration) bool

// measureFor keeps measuring until d has passed. A traced invocation
// needs at least one untraced and one traced round.
func measureFor(d time.Duration) stopRule {
	return func(rounds []*round, elapsed time.Duration) bool {
		return elapsed >= d && len(rounds) >= 2
	}
}

// invoke resolves the cells, takes the serial references, runs one
// untimed warm-up round and then measured rounds until done says stop.
func invoke(o options, done stopRule) (*invocation, error) {
	procs := min(maxProcs, runtime.NumCPU())
	runtime.GOMAXPROCS(procs)
	inv := &invocation{cells: benchWorkloads[o.workload], procs: procs, numCPU: runtime.NumCPU()}
	sim := &simulator{refs: map[refKey]*outcome{}, firstCounts: map[string]simCounts{}}
	for _, c := range inv.cells {
		k := c.refKey()
		if _, ok := sim.refs[k]; ok {
			continue
		}
		rc := c.reference()
		ref := sim.run(&rc, 0)
		if ref.failure != "" {
			return nil, fmt.Errorf("serial reference %s/%d channels: %s", k.workload, k.channels, ref.failure)
		}
		sim.refs[k] = ref
	}
	if o.trace {
		inv.spans = newSpanLog()
	}
	rng := rand.New(rand.NewSource(o.seed))
	inv.warmup = inv.runRound(sim, rng, false, 0)
	start := time.Now()
	for i := 1; ; i++ {
		traced := o.trace && i%2 == 0
		inv.rounds = append(inv.rounds, inv.runRound(sim, rng, traced, i))
		inv.elapsed = time.Since(start)
		if done(inv.rounds, inv.elapsed) {
			return inv, nil
		}
	}
}

// runRound runs every cell once in an order drawn from rng. Only the
// loop over the cells is timed; the GC figures are read outside it.
func (inv *invocation) runRound(sim *simulator, rng *rand.Rand, traced bool, idx int) *round {
	r := &round{traced: traced}
	sim.spans = nil
	if traced {
		sim.spans = inv.spans
	}
	order := rng.Perm(len(inv.cells))
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for _, i := range order {
		r.sims = append(r.sims, sim.run(&inv.cells[i], idx))
	}
	r.wall = time.Since(start)
	runtime.ReadMemStats(&ms1)
	r.gcCount = ms1.NumGC - ms0.NumGC
	r.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	return r
}

// allRounds is the warm-up round followed by the measured ones.
func (inv *invocation) allRounds() []*round {
	return append([]*round{inv.warmup}, inv.rounds...)
}

// measured returns the measured rounds with the given tracing.
func (inv *invocation) measured(traced bool) []*round {
	var out []*round
	for _, r := range inv.rounds {
		if r.traced == traced {
			out = append(out, r)
		}
	}
	return out
}

// failures lists every failed simulation of the invocation, warm-up
// included; attempted counts them all.
func (inv *invocation) failures() (failed []string, attempted int) {
	for _, r := range inv.allRounds() {
		for _, o := range r.sims {
			attempted++
			if o.failure != "" {
				failed = append(failed, o.cell.ID()+": "+o.failure)
			}
		}
	}
	return failed, attempted
}

// simErr is the mean relative ROI-cycle error of every passing
// optimistic run of the invocation, and how many there were.
func (inv *invocation) simErr() (pct float64, n int) {
	var xs []float64
	for _, r := range inv.allRounds() {
		for _, o := range r.sims {
			if o.failure == "" && !o.cell.Scheme.Conservative() {
				xs = append(xs, o.simErrPct)
			}
		}
	}
	return stats.Mean(xs), len(xs)
}

// roiSkew counts the Q10 runs that passed with an ROI committed count one
// off serial's (see quantumROISkew), and the largest difference.
func (inv *invocation) roiSkew() (n int, most int64) {
	for _, r := range inv.allRounds() {
		for _, o := range r.sims {
			if o.failure == "" && o.roiCommittedDiff > 0 {
				n++
				most = max(most, o.roiCommittedDiff)
			}
		}
	}
	return n, most
}

// minCoverageSeen is the lowest ledger coverage of any measured round.
func (inv *invocation) minCoverageSeen() float64 {
	lowest := math.Inf(1)
	for _, r := range inv.rounds {
		lowest = math.Min(lowest, r.coverage())
	}
	return lowest
}

// endToEnd computes the end-to-end metrics over the untraced measured
// rounds, and each one's sample count.
func (inv *invocation) endToEnd() (map[string]float64, map[string]int) {
	rounds := inv.measured(false)
	var walls, setups, allocs []float64
	cellKIPS := map[string][]float64{}
	for _, r := range rounds {
		walls = append(walls, r.wall.Seconds())
		setups = append(setups, r.setup().Seconds())
		for _, o := range r.sims {
			allocs = append(allocs, float64(o.allocBytes)/(1<<20))
			if o.failure == "" {
				cellKIPS[o.cell.ID()] = append(cellKIPS[o.cell.ID()], o.kips())
			}
		}
	}
	var kips []float64
	for _, xs := range cellKIPS {
		kips = append(kips, stats.Median(xs))
	}
	return map[string]float64{
			"e2e_s":    stats.Median(walls),
			"kips":     stats.HarmonicMean(kips),
			"setup_s":  stats.Median(setups),
			"alloc_mb": stats.Median(allocs),
		}, map[string]int{
			"e2e_s": len(walls), "kips": len(kips), "setup_s": len(setups), "alloc_mb": len(allocs),
		}
}

// perLayer computes the per-layer metrics: the median over traced rounds
// of each round figure, plus the invocation figures.
func (inv *invocation) perLayer() map[string]float64 {
	traced := inv.measured(true)
	byName := map[string][]float64{}
	for _, r := range traced {
		for k, v := range roundLayers(r) {
			byName[k] = append(byName[k], v)
		}
	}
	out := map[string]float64{}
	for _, d := range perLayer {
		out[d.Name] = stats.Median(byName[d.Name])
	}
	var tracedWalls, plainWalls []float64
	for _, r := range traced {
		tracedWalls = append(tracedWalls, r.wall.Seconds())
	}
	for _, r := range inv.measured(false) {
		plainWalls = append(plainWalls, r.wall.Seconds())
	}
	out["obs.overhead_frac"] = stats.Median(tracedWalls)/stats.Median(plainWalls) - 1
	// Every dropped trace record counts, so drops are totalled.
	var dropped float64
	for _, v := range byName["trace.dropped"] {
		dropped += v
	}
	out["trace.dropped"] = dropped
	out["bench.ledger_coverage"] = inv.minCoverageSeen()
	if pct, n := inv.simErr(); n > 0 {
		out["sim_err_pct"] = pct
	} else {
		out["sim_err_pct"] = 0 // no optimistic cells
	}
	failed, attempted := inv.failures()
	out["failed_frac"] = float64(len(failed)) / float64(attempted)
	return out
}

// derivedStepCells counts the cells whose cpu.step_s is derived.
func (inv *invocation) derivedStepCells() int {
	n := 0
	for _, o := range inv.measured(true)[0].sims {
		if o.layer.derivedSteps {
			n++
		}
	}
	return n
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report prints the human-readable summary, writes the full record (and
// the span file when traced) under o.out, and ends with the JSON result.
func (inv *invocation) report(w io.Writer, o options) error {
	failed, attempted := inv.failures()
	coverage := inv.minCoverageSeen()
	res := result{
		Correct:   len(failed) == 0 && coverage >= minCoverage,
		Attempted: attempted,
		Failed:    len(failed),
		Metrics:   map[string]metricValue{},
	}
	fmt.Fprintf(w, "perfbench workload=%s seed=%d scale=%d trace=%v numcpu=%d gomaxprocs=%d rounds=%d+1 warm-up measured=%.1fs\n",
		o.workload, o.seed, scale, o.trace, inv.numCPU, inv.procs, len(inv.rounds), inv.elapsed.Seconds())
	for _, c := range inv.cells {
		fmt.Fprintf(w, "  cell %-30s driver=%s\n", c.ID(), c.Driver)
	}
	for _, f := range failed {
		fmt.Fprintf(w, "  FAILED %s\n", f)
	}
	fmt.Fprintf(w, "  ledger coverage %.4f (lowest measured round; must be >= %.2f)\n", coverage, minCoverage)

	e2e, n := inv.endToEnd()
	errPct, nOpt := inv.simErr()
	for _, d := range endToEnd {
		fmt.Fprintf(w, "  %-12s %12.6f %-5s median of %d\n", d.Name, e2e[d.Name], d.Unit, n[d.Name])
	}
	if nOpt > 0 {
		fmt.Fprintf(w, "  %-12s %12.6f %-5s mean of %d optimistic runs\n", "sim_err_pct", errPct, "%", nOpt)
	} else {
		fmt.Fprintf(w, "  %-12s %12s %-5s no optimistic cells\n", "sim_err_pct", "n/a", "%")
	}
	fmt.Fprintf(w, "  %-12s %12.6f %-5s %d of %d simulations\n", "failed_frac", float64(len(failed))/float64(attempted), "frac", len(failed), attempted)
	if n, most := inv.roiSkew(); n > 0 {
		fmt.Fprintf(w, "  note: %d Q10 run(s) match serial except for an ROI committed count off by up to %d (the ROI-marking skew let through)\n", n, most)
	}

	defs, values := endToEnd, e2e
	if o.trace {
		defs, values = perLayer, inv.perLayer()
		if k := inv.derivedStepCells(); k > 0 {
			fmt.Fprintf(w, "  cpu.step_s is derived (core.run_s - core.manager_busy_s) for %d cell(s): the fused driver reports no CoreBusy/CoreWait\n", k)
		}
		for _, d := range defs {
			fmt.Fprintf(w, "  %-28s %16.6f %s\n", d.Name, values[d.Name], d.Unit)
		}
		verdict := "within"
		if values["obs.overhead_frac"] >= obsBudget {
			verdict = "over"
		}
		fmt.Fprintf(w, "  tracing overhead %.1f%%: %s the %.0f%% budget\n", 100*values["obs.overhead_frac"], verdict, 100*obsBudget)
		spanPath := filepath.Join(o.out, fmt.Sprintf("%s_seed%d_spans.json", o.workload, o.seed))
		if err := inv.spans.writeFile(spanPath); err != nil {
			return err
		}
		fmt.Fprintf(w, "  span file %s\n", spanPath)
	}
	for _, d := range defs {
		v := values[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[d.Name] = metricValue{v, d.Unit}
	}
	if err := inv.writeRecord(o, res, failed); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(line))
	return nil
}

// writeRecord writes the result with its provenance: host, seed, scale,
// the resolved driver of every cell and each round's figures.
func (inv *invocation) writeRecord(o options, res result, failed []string) error {
	type roundRec struct {
		Traced   bool    `json:"traced"`
		WallS    float64 `json:"wall_s"`
		SetupS   float64 `json:"setup_s"`
		Coverage float64 `json:"coverage"`
		GCs      uint32  `json:"gcs"`
	}
	rec := map[string]any{
		"workload": o.workload, "seed": o.seed, "scale": scale, "trace": o.trace,
		"num_cpu": inv.numCPU, "gomaxprocs": inv.procs, "go": runtime.Version(),
		"failed": failed, "result": res,
	}
	drivers := map[string]string{}
	for _, c := range inv.cells {
		drivers[c.ID()] = c.Driver
	}
	rec["drivers"] = drivers
	var rounds []roundRec
	for _, r := range inv.allRounds() {
		rounds = append(rounds, roundRec{r.traced, r.wall.Seconds(), r.setup().Seconds(), r.coverage(), r.gcCount})
	}
	rec["rounds"] = rounds
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	traced := 0
	if o.trace {
		traced = 1
	}
	path := filepath.Join(o.out, fmt.Sprintf("%s_seed%d_trace%d.json", o.workload, o.seed, traced))
	return os.WriteFile(path, b, 0o644)
}
