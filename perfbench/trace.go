package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Layer names: one span name per module on the campaign path.
const (
	layerGen     = "gen"
	layerDRF     = "drf"
	layerMachine = "machine"
	layerKey     = "mem.key"
	layerSat     = "sat"
	layerIdeal   = "ideal"
	layerScmatch = "scmatch"
	layerShrink  = "shrink"
)

var layers = []string{layerGen, layerDRF, layerMachine, layerKey, layerSat, layerIdeal, layerScmatch, layerShrink}

// span is one call into a layer: its name, its interval in nanoseconds
// since the tracer started, the span that caused it (-1 for none) and
// the campaign program it served.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Prog   int32  `json:"prog"`
}

// tracer keeps spans in memory. A disabled tracer records nothing and
// reads no clock, so the same replay code measures tracing overhead.
type tracer struct {
	on    bool
	epoch time.Time
	prog  int32
	spans []span
	open  []int32
}

func newTracer(on bool) *tracer { return &tracer{on: on, epoch: time.Now()} }

// begin opens a span as a child of the innermost open span and returns
// its id for end.
func (t *tracer) begin(name string) int32 {
	if !t.on {
		return -1
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.epoch)), Parent: parent, Prog: t.prog})
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int32) {
	if id < 0 {
		return
	}
	t.spans[id].End = int64(time.Since(t.epoch))
	t.open = t.open[:len(t.open)-1]
}

// selfTimes returns each layer's self time in seconds: its spans'
// durations minus the parts covered by their child spans.
func (t *tracer) selfTimes() map[string]float64 {
	self := make(map[string]int64, len(layers))
	for _, s := range t.spans {
		d := s.End - s.Start
		self[s.Name] += d
		if s.Parent >= 0 {
			self[t.spans[s.Parent].Name] -= d
		}
	}
	out := make(map[string]float64, len(self))
	for name, ns := range self {
		out[name] = float64(ns) / 1e9
	}
	return out
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
