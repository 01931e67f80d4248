package main

import (
	"fmt"
	"net"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"slacksim/internal/asm"
	"slacksim/internal/core"
	slackmetrics "slacksim/internal/metrics"
	"slacksim/internal/remote"
	"slacksim/internal/trace"
	"slacksim/internal/workloads"
)

// phase is one timed public call of a simulation. The phases of a round
// sum to its wall time (the outside ledger check).
type phase int

const (
	phCollect    phase = iota // runtime.GC before the simulation (see run)
	phAssemble                // workloads.Source + asm.Assemble
	phNewMachine              // core.NewMachine (loader, mem image)
	phInit                    // Workload.Init
	phObserve                 // EnableMetrics + EnableTrace (traced rounds only)
	phFleet                   // loopback worker start and shutdown (remote cells only)
	phRun                     // Machine.Run{Fused,Parallel,RemoteShardedOpts}
	phVerify                  // Workload.Verify
	numPhases
)

var phaseNames = [numPhases]string{"collect", "assemble", "new_machine", "init", "observe", "fleet", "run", "verify"}

// outcome is what one simulation leaves behind: its timings and the
// numbers the metrics need. It holds no reference to the machine or the
// Result, so the 256 MiB image is garbage as soon as the run ends.
type outcome struct {
	cell  *cell
	phase [numPhases]time.Duration
	// allocBytes is the heap allocated from assemble through the run.
	allocBytes uint64
	// imageBytes is the heap allocated by NewMachine alone.
	imageBytes uint64
	failure    string // empty when the simulation passed every check

	roiCycles int64
	committed int64 // ROI instructions, the KIPS numerator
	// totalCommitted is every instruction the cores committed; with
	// roiCycles it is the bit-exactness witness of conservative cells.
	totalCommitted int64
	// roiCommittedDiff is |ROI committed − serial ROI committed| of a
	// conservative cell (see check).
	roiCommittedDiff int64
	counts           simCounts
	simErrPct        float64 // optimistic cells only
	layer            layerSample
}

func (o *outcome) setup() time.Duration {
	return o.phase[phAssemble] + o.phase[phNewMachine] + o.phase[phInit]
}

// kips is ROI kilo-instructions per host second of the Run* call.
func (o *outcome) kips() float64 {
	return float64(o.committed) / 1e3 / o.phase[phRun].Seconds()
}

// simCounts are simulated counters that a conservative cell must repeat
// exactly from one run to the next.
type simCounts struct {
	squashed, mispredicts                         int64
	l2Accesses, l2Misses, l2Invs, l2OrderViolates int64
}

func countsOf(res *core.Result) simCounts {
	c := simCounts{
		l2Accesses: res.L2Stats.Accesses, l2Misses: res.L2Stats.Misses,
		l2Invs: res.L2Stats.InvsSent, l2OrderViolates: res.L2Stats.OrderViolations,
	}
	for _, st := range res.CoreStats {
		c.squashed += st.Squashed
		c.mispredicts += st.Mispred
	}
	return c
}

// totalCommitted sums the instructions every core committed in the run.
func totalCommitted(res *core.Result) int64 {
	var n int64
	for _, st := range res.CoreStats {
		n += st.Committed
	}
	return n
}

// heapAllocBytes reads the cumulative heap allocation without stopping
// the world (runtime.ReadMemStats would).
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// simulator runs one cell at a time, timing each public call from
// outside the program.
type simulator struct {
	// refs are the serial-engine outcomes the cells are checked against.
	refs map[refKey]*outcome
	// firstCounts holds each conservative cell's counters from its first
	// passing run.
	firstCounts map[string]simCounts
	// spans is set in traced rounds, which also attach the metrics
	// registry and engine trace; nil in untraced rounds.
	spans *spanLog
}

// clock times consecutive phases back to back, so no host time falls
// between them.
type clock struct {
	o     *outcome
	spans *spanLog
	cell  int64
	last  time.Time
}

func (c *clock) lap(p phase) {
	now := time.Now()
	c.o.phase[p] += now.Sub(c.last)
	c.spans.add(phaseNames[p], c.cell, c.last, now)
	c.last = now
}

// run executes c once and checks it. Failures are recorded on the
// outcome, never dropped.
func (s *simulator) run(c *cell, roundNo int) *outcome {
	o := &outcome{cell: c}
	traced := s.spans != nil
	w, err := workloads.Get(c.Workload)
	if err != nil {
		o.failure = err.Error()
		return o
	}
	spanID := s.spans.open(fmt.Sprintf("%s#r%d", c.ID(), roundNo))
	start := time.Now()
	clk := &clock{o: o, spans: s.spans, cell: spanID, last: start}
	defer func() { s.spans.add("simulation", spanID, start, time.Now()) }()

	// Collect the previous simulation's garbage first, so the freed
	// 256 MiB image is reused at once. Left to the pacer, the runtime may
	// return it to the OS before NewMachine asks again, and the image is
	// then faulted in page by page: 120-200 ms instead of 30 ms, at
	// random from one process to the next. The collection is timed and
	// counts in the round.
	runtime.GC()
	clk.lap(phCollect)
	a0 := heapAllocBytes()
	prog, err := asm.Assemble(w.Source(scale), asm.Options{})
	clk.lap(phAssemble)
	if err != nil {
		o.failure = fmt.Sprintf("assemble: %v", err)
		return o
	}
	a1 := heapAllocBytes()
	m, err := core.NewMachine(prog, c.target())
	clk.lap(phNewMachine)
	o.imageBytes = heapAllocBytes() - a1
	if err != nil {
		o.failure = fmt.Sprintf("new machine: %v", err)
		return o
	}
	err = w.Init(m.Image(), scale)
	clk.lap(phInit)
	if err != nil {
		o.failure = fmt.Sprintf("init: %v", err)
		return o
	}
	var reg *slackmetrics.Registry
	if traced {
		reg = slackmetrics.NewRegistry()
		m.EnableMetrics(reg)
		m.EnableTrace(trace.New())
		clk.lap(phObserve)
	}
	var fleet *loopbackFleet
	if c.Driver == "remote" {
		fleet, err = startFleet(c.Shards)
		clk.lap(phFleet)
		if err != nil {
			o.failure = fmt.Sprintf("fleet: %v", err)
			return o
		}
	}

	prev := runtime.GOMAXPROCS(c.HostCores)
	var res *core.Result
	switch c.Driver {
	case "serial":
		res, err = m.RunSerial()
	case "fused":
		res, err = m.RunFused(c.Scheme)
	case "parallel", "sharded":
		res, err = m.RunParallel(c.Scheme)
	case "remote":
		res, err = m.RunRemoteShardedOpts(c.Scheme, &core.RemoteOptions{
			Transports: fleet.transports,
			Redial:     fleet.dial,
		})
	default:
		err = fmt.Errorf("unknown driver %q", c.Driver)
	}
	runtime.GOMAXPROCS(prev)
	clk.lap(phRun)
	if fleet != nil {
		fleet.close()
		clk.lap(phFleet)
	}
	o.allocBytes = heapAllocBytes() - a0
	if err != nil {
		o.failure = fmt.Sprintf("run: %v", err)
		return o
	}
	if res.Aborted {
		o.failure = fmt.Sprintf("run aborted at cycle %d", res.EndTime)
		return o
	}
	err = w.Verify(m.Image(), res.Output, scale)
	clk.lap(phVerify)
	if err != nil {
		o.failure = fmt.Sprintf("verify: %v", err)
		return o
	}

	o.roiCycles, o.committed, o.totalCommitted = res.ROICycles(), res.Committed, totalCommitted(res)
	o.counts = countsOf(res)
	if traced {
		o.layer = sampleLayers(res, reg, m.FleetTraceDropped())
	}
	if c.Driver != "serial" {
		o.failure = s.check(c, o, res)
	}
	return o
}

// check compares the run with its serial reference: a conservative cell
// must match its ROI cycles, ROI committed and total committed
// instructions exactly, and repeat its first run's simulated counters;
// optimistic cells record their ROI-cycle error. A remote run that
// needed any recovery fails too.
func (s *simulator) check(c *cell, o *outcome, res *core.Result) string {
	if rec := res.Recovery; rec != nil {
		if rec.Reconnects != 0 || rec.ReplayedBatches != 0 || rec.AbandonedWorkers != 0 || rec.MigratedShards != 0 {
			return fmt.Sprintf("remote recovery: %+v", *rec)
		}
	}
	ref, ok := s.refs[c.refKey()]
	if !ok {
		return "no serial reference"
	}
	if c.Scheme.Conservative() {
		o.roiCommittedDiff = abs(o.committed - ref.committed)
		if o.roiCycles != ref.roiCycles || o.totalCommitted != ref.totalCommitted ||
			(o.roiCommittedDiff != 0 && !quantumROISkew(c, o.roiCommittedDiff)) {
			return fmt.Sprintf("conservative run differs from serial: %d ROI cycles/%d ROI committed/%d committed, want %d/%d/%d",
				o.roiCycles, o.committed, o.totalCommitted, ref.roiCycles, ref.committed, ref.totalCommitted)
		}
		first, seen := s.firstCounts[c.ID()]
		if !seen {
			s.firstCounts[c.ID()] = o.counts
		} else if o.counts != first {
			return fmt.Sprintf("simulated counters differ from the cell's first run: %+v, want %+v", o.counts, first)
		}
		return ""
	}
	o.simErrPct = 100 * float64(abs(o.roiCycles-ref.roiCycles)) / float64(ref.roiCycles)
	return ""
}

// quantumROISkew reports whether a conservative cell's ROI committed count
// may differ from serial by diff. Each core marks the ROI at its own local
// time when it sees the ROI event, so under Q10 a core ahead of the global
// time can commit one instruction before marking (ocean: 233752 against
// serial's 233753 under every driver). That one case is let through and
// reported as cpu.roi_committed_diff; any other difference fails.
func quantumROISkew(c *cell, diff int64) bool {
	return c.Scheme.Kind == core.Quantum && diff <= 1
}

func abs(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// loopbackFleet serves remote shards from in-process worker sessions over
// real loopback TCP, so every wire cost (framing, codec, socket round
// trips) is paid. It does what the harness's unexported loopback fleet
// does, through public calls only. The listener stays open for the run
// so the parent's supervisor could redial; a run that needs to is
// counted as failed.
type loopbackFleet struct {
	ln         net.Listener
	transports []remote.Transport
	sessions   sync.WaitGroup
	acceptor   sync.WaitGroup
}

func startFleet(workers int) (*loopbackFleet, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f := &loopbackFleet{ln: ln}
	f.acceptor.Add(1)
	go f.accept()
	for i := 0; i < workers; i++ {
		t, err := f.dial(i)
		if err != nil {
			f.close()
			return nil, err
		}
		f.transports = append(f.transports, t)
	}
	return f, nil
}

func (f *loopbackFleet) dial(int) (remote.Transport, error) {
	return net.Dial("tcp", f.ln.Addr().String())
}

func (f *loopbackFleet) accept() {
	defer f.acceptor.Done()
	for {
		conn, err := f.ln.Accept()
		if err != nil {
			return
		}
		f.sessions.Add(1)
		go func() {
			defer f.sessions.Done()
			// A session's end error is the parent's to report; the run's
			// own error and Recovery counters carry it.
			_ = core.ServeRemoteShards(conn)
		}()
	}
}

// close stops accepting, closes the parent ends and waits for every
// worker session to exit.
func (f *loopbackFleet) close() {
	f.ln.Close()
	f.acceptor.Wait()
	for _, t := range f.transports {
		t.Close()
	}
	f.sessions.Wait()
}
