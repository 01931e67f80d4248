package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// spanLog keeps the benchmark-side spans of traced rounds in memory and
// writes them as Chrome trace-event JSON when the run ends. Each span is
// one public call of one simulation; the simulations' own spans share the
// cell's id and name it as their parent. A nil *spanLog records nothing
// (untraced rounds).
type spanLog struct {
	epoch time.Time
	spans []span
	cells []string // cell span id -> "<cell id>#r<round>"
}

type span struct {
	name       string
	cell       int64
	start, end time.Time
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// open names a new simulation and returns its id. The caller records
// the simulation's own span with add("simulation", id, ...) when it ends.
func (l *spanLog) open(name string) int64 {
	if l == nil {
		return -1
	}
	l.cells = append(l.cells, name)
	return int64(len(l.cells) - 1)
}

// add records a finished span of simulation id.
func (l *spanLog) add(name string, id int64, start, end time.Time) {
	if l == nil {
		return
	}
	l.spans = append(l.spans, span{name: name, cell: id, start: start, end: end})
}

type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes the spans as Chrome trace-event JSON; every span
// carries its simulation's id and, below the simulation, its parent.
func (l *spanLog) writeChrome(w io.Writer) error {
	evs := make([]chromeEvent, 0, len(l.spans))
	for _, s := range l.spans {
		args := map[string]any{"cell": l.cells[s.cell], "id": s.cell}
		if s.name != "simulation" {
			args["parent"] = fmt.Sprintf("simulation:%d", s.cell)
		}
		evs = append(evs, chromeEvent{
			Name: s.name, Ph: "X", PID: 1, TID: 1, Args: args,
			TS:  float64(s.start.Sub(l.epoch).Nanoseconds()) / 1e3,
			Dur: float64(s.end.Sub(s.start).Nanoseconds()) / 1e3,
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
}

// writeFile writes the span file to path, creating its directory.
func (l *spanLog) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := l.writeChrome(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
