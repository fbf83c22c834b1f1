package main

import (
	"bytes"
	"sync"

	"mobilestorage/internal/obs"
	"mobilestorage/internal/obsreport"
)

// liveFigures is a Tracer that keeps every report builder aggregating live,
// so the -serve endpoints can render any /plot/<report> figure while the
// simulation is still going. Emit runs on the simulation path and SVG on
// HTTP handler goroutines, so both serialize on the mutex.
type liveFigures struct {
	mu sync.Mutex
	f  *obsreport.FigureSet
}

func newLiveFigures() *liveFigures {
	return &liveFigures{f: obsreport.NewFigureSet()}
}

// Kinds implements obs.KindFilter: the kinds the figures read.
func (p *liveFigures) Kinds() obs.KindSet { return p.f.Kinds() }

// Emit implements obs.Tracer.
func (p *liveFigures) Emit(e obs.Event) {
	p.mu.Lock()
	p.f.Observe(e)
	p.mu.Unlock()
}

// SVG renders a snapshot of one report kind from the events seen so far.
// Unknown kinds return obsreport.UnknownKindError.
func (p *liveFigures) SVG(kind string) ([]byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	c, err := p.f.Chart(kind)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := c.Render(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
