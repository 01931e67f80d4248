package core

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"slacksim/internal/asm"
	"slacksim/internal/faultinject"
	"slacksim/internal/remote"
	"slacksim/internal/workloads"
)

// remoteMachine builds a machine configured for the distributed backend,
// mirroring shardedMachine so the two drivers simulate the identical
// timing configuration.
func remoteMachine(t *testing.T, prog *asm.Program, w *workloads.Workload, cores, shards int) *Machine {
	t.Helper()
	cfg := smallConfig(cores, ModelOoO)
	cfg.MaxCycles = 200_000_000
	cfg.RemoteShards = shards
	m, err := NewMachine(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if w != nil {
		if err := w.Init(m.Image(), 1); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// startRemoteWorkers spawns nw worker sessions in-process over net.Pipe
// (which honors deadlines, so the wire paths are exercised end to end)
// and returns the parent-side transports plus a join that collects each
// session's exit error.
func startRemoteWorkers(nw int) ([]remote.Transport, func() []error) {
	transports := make([]remote.Transport, nw)
	errs := make(chan error, nw)
	for i := 0; i < nw; i++ {
		p, q := net.Pipe()
		transports[i] = p
		go func() { errs <- ServeRemoteShards(q) }()
	}
	join := func() []error {
		out := make([]error, 0, nw)
		for i := 0; i < nw; i++ {
			select {
			case e := <-errs:
				out = append(out, e)
			case <-time.After(20 * time.Second):
				out = append(out, fmt.Errorf("worker %d: join timeout", i))
			}
		}
		return out
	}
	return transports, join
}

// TestRemoteShardedSmoke is the short-mode determinism check: a remote
// run over one in-process worker must be bit-identical to the in-process
// sharded driver on the same configuration.
func TestRemoteShardedSmoke(t *testing.T) {
	prog, err := asm.Assemble(threadsProg, asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := shardedMachine(t, prog, nil, 2, 2).RunParallel(SchemeCC)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	m := remoteMachine(t, prog, nil, 2, 2)
	transports, join := startRemoteWorkers(1)
	res, err := m.RunRemoteSharded(SchemeCC, transports)
	if err != nil {
		t.Fatal(err)
	}
	for _, werr := range join() {
		if werr != nil {
			t.Errorf("worker exit: %v", werr)
		}
	}
	assertRemoteExact(t, "CC/1worker", res, ref)
	if res.Wire == nil {
		t.Fatal("remote run has no wire stats")
	}
	if res.Wire.Parent.BatchesSent == 0 || res.Wire.Workers.BatchesSent == 0 {
		t.Errorf("wire stats empty: parent %+v workers %+v", res.Wire.Parent, res.Wire.Workers)
	}
	if n := settleGoroutines(before); n > before {
		t.Errorf("goroutine leak: %d before, %d after", before, n)
	}
}

// TestRemoteConservativeExact is the distributed analog of
// TestShardedConservativeExact: for every deterministic scheme and
// worker count, RunRemoteSharded must be bit-identical to the in-process
// sharded driver with ManagerShards = RemoteShards.
func TestRemoteConservativeExact(t *testing.T) {
	if testing.Short() {
		t.Skip("workload sweep")
	}
	w, err := workloads.Get("ocean")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := asm.Assemble(w.Source(1), asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const shards = 2
	for _, s := range []Scheme{SchemeCC, SchemeQ10, SchemeL10, SchemeS9x} {
		ref, err := shardedMachine(t, prog, w, 4, shards).RunParallel(s)
		if err != nil {
			t.Fatalf("%v: in-process reference: %v", s, err)
		}
		for _, nw := range []int{1, 2} {
			m := remoteMachine(t, prog, w, 4, shards)
			transports, join := startRemoteWorkers(nw)
			res, err := m.RunRemoteSharded(s, transports)
			if err != nil {
				t.Fatalf("%v workers=%d: %v", s, nw, err)
			}
			for _, werr := range join() {
				if werr != nil {
					t.Errorf("%v workers=%d: worker exit: %v", s, nw, werr)
				}
			}
			if verr := w.Verify(m.Image(), res.Output, 1); verr != nil {
				t.Errorf("%v workers=%d: %v", s, nw, verr)
			}
			assertRemoteExact(t, fmt.Sprintf("%v/workers=%d", s, nw), res, ref)
		}
	}
}

// assertRemoteExact holds a remote result to the in-process sharded
// reference on every deterministic field — the bit-exactness guarantee
// of docs/distributed.md. (The L2 aggregate is excluded for the same
// reason TestShardedConservativeExact excludes it: post-done straggler
// events are finalized against the parent's local hierarchy instance.)
func assertRemoteExact(t *testing.T, name string, res, ref *Result) {
	t.Helper()
	if res.EndTime != ref.EndTime {
		t.Errorf("%s: end %d != in-process %d", name, res.EndTime, ref.EndTime)
	}
	if res.ExitCode != ref.ExitCode {
		t.Errorf("%s: exit %d != in-process %d", name, res.ExitCode, ref.ExitCode)
	}
	if res.Output != ref.Output {
		t.Errorf("%s: output %q != in-process %q", name, res.Output, ref.Output)
	}
	// Committed is deliberately not compared: a core commits a few more
	// instructions after the exit event before it observes done, and that
	// tail depends on host scheduling in both drivers — the in-process
	// exactness test (TestShardedConservativeExact) excludes it for the
	// same reason.
	if res.TimeWarps != ref.TimeWarps {
		t.Errorf("%s: time warps %d != in-process %d", name, res.TimeWarps, ref.TimeWarps)
	}
	if res.CoherenceWarps != ref.CoherenceWarps {
		t.Errorf("%s: coherence warps %d != in-process %d", name, res.CoherenceWarps, ref.CoherenceWarps)
	}
}

// runRemoteBounded drives a remote run that is expected to fail, bounding
// the wait so a containment bug surfaces as a test failure, not a hang.
func runRemoteBounded(t *testing.T, m *Machine, s Scheme, transports []remote.Transport, within time.Duration) error {
	t.Helper()
	type outcome struct {
		res *Result
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		res, err := m.RunRemoteSharded(s, transports)
		ch <- outcome{res, err}
	}()
	select {
	case o := <-ch:
		if o.err == nil {
			t.Fatal("run succeeded; expected a contained fault")
		}
		return o.err
	case <-time.After(within):
		t.Fatalf("run still blocked after %v; containment failed", within)
		return nil
	}
}

// wantWorkerSimError asserts the contained error names the worker's
// fault domain with one of the expected containment sites.
func wantWorkerSimError(t *testing.T, err error, ops ...string) *SimError {
	t.Helper()
	var se *SimError
	if !errors.As(err, &se) {
		t.Fatalf("error is %T (%v), want *SimError", err, err)
	}
	if se.Core > faultinject.Manager {
		t.Errorf("fault core = %d, want a worker fault id (<= %d)", se.Core, faultinject.Manager)
	}
	for _, op := range ops {
		if se.Op == op {
			return se
		}
	}
	t.Errorf("fault op = %q, want one of %v (detail: %s)", se.Op, ops, se.Detail)
	return se
}

// TestRemoteWorkerDiesMidRun: a worker whose connection drops right
// after the handshake — with no Redial hook configured — must degrade,
// not die: the supervisor abandons the worker, its shards migrate into
// the parent's in-process path, and the run completes bit-exact with the
// in-process sharded reference.
func TestRemoteWorkerDiesMidRun(t *testing.T) {
	refCfg := smallConfig(2, ModelOoO)
	refCfg.ManagerShards = 2
	refM, err := NewMachine(mustAssemble(t, threadsProg), refCfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := refM.RunParallel(SchemeCC)
	if err != nil {
		t.Fatalf("in-process reference: %v", err)
	}

	before := runtime.NumGoroutine()
	m := mustRemoteSmall(t, 2)
	m.cfg.StallTimeout = 5 * time.Second
	p, q := net.Pipe()
	go func() {
		c := remote.NewConn(q)
		if _, err := c.AcceptHello(time.Now().Add(10 * time.Second)); err != nil {
			return
		}
		q.Close() // killed immediately after joining the run
	}()
	res, err := m.RunRemoteSharded(SchemeCC, []remote.Transport{p})
	if err != nil {
		t.Fatalf("degraded run failed: %v", err)
	}
	rec := res.Recovery
	if rec == nil {
		t.Fatal("remote run carries no recovery stats")
	}
	if rec.AbandonedWorkers != 1 {
		t.Errorf("abandoned workers = %d, want 1", rec.AbandonedWorkers)
	}
	if rec.MigratedShards != 2 {
		t.Errorf("migrated shards = %d, want 2", rec.MigratedShards)
	}
	if rec.Reconnects != 0 {
		t.Errorf("reconnects = %d with no Redial hook", rec.Reconnects)
	}
	assertRemoteExact(t, "degraded/CC", res, ref)
	if n := settleGoroutines(before); n > before {
		t.Errorf("goroutine leak: %d before, %d after", before, n)
	}
}

// TestRemoteWorkerNeverCompletesHandshake: a peer that accepts the
// connection but never answers the Hello must produce a handshake
// SimError within the (shortened) deadline.
func TestRemoteWorkerNeverCompletesHandshake(t *testing.T) {
	before := runtime.NumGoroutine()
	m := mustRemoteSmall(t, 2)
	m.cfg.StallTimeout = 500 * time.Millisecond
	p, q := net.Pipe()
	go io.Copy(io.Discard, q) // reads the hello, never replies
	start := time.Now()
	_, err := m.RunRemoteSharded(SchemeCC, []remote.Transport{p})
	if err == nil {
		t.Fatal("run succeeded against a silent worker")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("handshake failure took %v; deadline not applied", elapsed)
	}
	wantWorkerSimError(t, err, "remote-handshake")
	q.Close()
	if n := settleGoroutines(before); n > before {
		t.Errorf("goroutine leak: %d before, %d after", before, n)
	}
}

// TestRemoteWorkerVersionMismatch: a worker that answers with a foreign
// protocol version must be refused with a structured handshake error
// naming both versions.
func TestRemoteWorkerVersionMismatch(t *testing.T) {
	m := mustRemoteSmall(t, 2)
	m.cfg.StallTimeout = 5 * time.Second
	p, q := net.Pipe()
	go func() {
		c := remote.NewConn(q)
		c.SetReadDeadline(time.Now().Add(10 * time.Second))
		if _, err := c.ReadFrame(); err != nil {
			return
		}
		payload := binary.LittleEndian.AppendUint16(nil, remote.Version+1)
		payload = append(payload, []byte(`{"worker_id":0}`)...)
		c.WriteFrame(remote.FWelcome, payload)
		c.Flush()
		io.Copy(io.Discard, q) // drain until the parent closes
	}()
	_, err := m.RunRemoteSharded(SchemeCC, []remote.Transport{p})
	if err == nil {
		t.Fatal("run accepted a version-mismatched worker")
	}
	se := wantWorkerSimError(t, err, "remote-handshake")
	if !strings.Contains(se.Detail, "version mismatch") {
		t.Errorf("detail %q does not name the version mismatch", se.Detail)
	}
}

// TestRemoteWorkerErrorFrame: a worker-side failure serialized as an
// FError frame (the cross-process analog of a contained panic) must
// surface as the run's error with its forensics — detail and stack —
// intact.
func TestRemoteWorkerErrorFrame(t *testing.T) {
	before := runtime.NumGoroutine()
	m := mustRemoteSmall(t, 2)
	m.cfg.StallTimeout = 5 * time.Second
	p, q := net.Pipe()
	go func() {
		c := remote.NewConn(q)
		if _, err := c.AcceptHello(time.Now().Add(10 * time.Second)); err != nil {
			return
		}
		body, _ := json.Marshal(&SimError{
			Core:   faultinject.ShardWorker(0),
			Op:     "remote-worker",
			Detail: "injected worker panic",
			Stack:  "goroutine 1 [running]:\nworker.go:1",
		})
		c.WriteFrame(remote.FError, body)
		c.Flush()
		io.Copy(io.Discard, q)
	}()
	err := runRemoteBounded(t, m, SchemeCC, []remote.Transport{p}, 30*time.Second)
	se := wantWorkerSimError(t, err, "remote-worker")
	if se.Detail != "injected worker panic" {
		t.Errorf("detail = %q", se.Detail)
	}
	if se.Stack == "" {
		t.Error("worker stack lost in transit")
	}
	if n := settleGoroutines(before); n > before {
		t.Errorf("goroutine leak: %d before, %d after", before, n)
	}
}

// TestRemoteWorkerPanicForensics drives a real panic through the worker
// loop: a corrupt batch (foreign shard) makes the session fail, and a
// genuine panic inside serve() must come back as FError. Here we panic
// the cache model by feeding the worker loop directly.
func TestRemoteConfigValidation(t *testing.T) {
	cfg := smallConfig(2, ModelOoO)
	cfg.RemoteShards = 2
	cfg.ManagerShards = 2
	if _, err := NewMachine(mustAssemble(t, sumProg), cfg); err == nil {
		t.Error("RemoteShards + ManagerShards accepted")
	}
	cfg = smallConfig(2, ModelOoO)
	cfg.RemoteShards = 3 // does not divide the default bank count
	if _, err := NewMachine(mustAssemble(t, sumProg), cfg); err == nil {
		t.Error("non-divisible RemoteShards accepted")
	}
	// A machine without RemoteShards must refuse the remote driver.
	m := mustMachine(t, sumProg, smallConfig(2, ModelOoO))
	if _, err := m.RunRemoteSharded(SchemeCC, nil); err == nil {
		t.Error("RunRemoteSharded ran without RemoteShards")
	}
}

// mustRemoteSmall builds a small 2-core machine with the given remote
// shard count (no workload image).
func mustRemoteSmall(t *testing.T, shards int) *Machine {
	t.Helper()
	cfg := smallConfig(2, ModelOoO)
	cfg.RemoteShards = shards
	m, err := NewMachine(mustAssemble(t, threadsProg), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestRemoteInterrupt: Interrupt() from a foreign goroutine (the signal
// path) must unwind a remote run through the normal join — aborted
// result, no error, workers finished — rather than deadlocking it.
func TestRemoteInterrupt(t *testing.T) {
	before := runtime.NumGoroutine()
	w, err := workloads.Get("ocean")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := asm.Assemble(w.Source(1), asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := remoteMachine(t, prog, w, 2, 2)
	transports, join := startRemoteWorkers(1)
	go func() {
		time.Sleep(50 * time.Millisecond)
		m.Interrupt()
	}()
	res, err := m.RunRemoteSharded(SchemeCC, transports)
	if err != nil {
		t.Fatalf("interrupted run errored: %v", err)
	}
	if !res.Aborted {
		t.Error("interrupted run not marked aborted")
	}
	for _, werr := range join() {
		if werr != nil {
			t.Errorf("worker exit: %v", werr)
		}
	}
	if n := settleGoroutines(before); n > before {
		t.Errorf("goroutine leak: %d before, %d after", before, n)
	}
}
