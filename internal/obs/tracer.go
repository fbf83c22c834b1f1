package obs

import (
	"bufio"
	"io"
	"strconv"
	"sync"
)

// Event is one structured simulator event: a device state transition or a
// notable occurrence on the storage path. The payload is three fixed int64
// slots instead of a map so emitting an event never allocates; each Kind
// documents how it uses them (see docs/OBSERVABILITY.md).
type Event struct {
	// T is the simulated time of the event in microseconds.
	T int64
	// Kind is the event type (EvDiskSpinUp, EvCardErase, ...).
	Kind Kind
	// Dev is the emitting device's name (may be empty for stack-level
	// events such as cache hits).
	Dev string
	// Addr is an address-like payload: a byte address, segment index, or
	// block number, per Kind.
	Addr int64
	// Size is a size-like payload: bytes, blocks, or sectors, per Kind.
	Size int64
	// Dur is a duration payload in microseconds, per Kind.
	Dur int64
}

// Tracer receives simulator events. Implementations must tolerate
// concurrent Emit calls (parallel experiments may share one tracer).
type Tracer interface {
	Emit(Event)
}

// Tee fans one event stream out to several tracers, forwarding each event
// in argument order to the members that read its kind. Nil entries are
// dropped, so callers can tee optional sinks without branching; with zero
// live tracers Tee returns nil, which Scope treats as "not tracing"
// (devices skip event construction). The tee reads the union of its
// members' kinds.
func Tee(tracers ...Tracer) Tracer {
	live := make(tee, 0, len(tracers))
	for _, t := range tracers {
		if t != nil {
			live = append(live, teeMember{t, kindsOf(t)})
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0].tr
	}
	return live
}

type teeMember struct {
	tr    Tracer
	kinds KindSet
}

type tee []teeMember

// Emit implements Tracer.
func (t tee) Emit(e Event) {
	for _, m := range t {
		if m.kinds.Has(e.Kind) {
			m.tr.Emit(e)
		}
	}
}

// Kinds implements KindFilter.
func (t tee) Kinds() KindSet {
	var s KindSet
	for _, m := range t {
		s |= m.kinds
	}
	return s
}

// kindsOf returns the kinds tr reads: its KindFilter set, or every kind.
func kindsOf(tr Tracer) KindSet {
	if f, ok := tr.(KindFilter); ok {
		return f.Kinds()
	}
	return AllKinds
}

// Collector is an unbounded in-memory Tracer: it appends every event of a
// kept kind to a slice, so a caller can inspect a complete stream without a
// file round-trip; bound memory on long runs by keeping only the kinds it
// reads. (Reports derived in
// process need no copy of the stream: an obsreport.FigureSet is a tracer.)
type Collector struct {
	mu     sync.Mutex
	keep   KindSet
	events []Event
}

// NewCollector returns a collector retaining the events whose kind is in
// keep (AllKinds retains everything). A Scope over it never builds the
// events of other kinds.
func NewCollector(keep KindSet) *Collector {
	return &Collector{keep: keep}
}

// Kinds implements KindFilter.
func (c *Collector) Kinds() KindSet { return c.keep }

// Emit implements Tracer.
func (c *Collector) Emit(e Event) {
	if !c.keep.Has(e.Kind) {
		return
	}
	c.mu.Lock()
	c.events = append(c.events, e)
	c.mu.Unlock()
}

// Events returns a copy of the collected events in emission order.
func (c *Collector) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Event(nil), c.events...)
}

// NDJSONSink is a Tracer that streams events as newline-delimited JSON.
// Serialization is hand-rolled (no reflection) and zero-value fields are
// omitted, so the format stays byte-deterministic for a deterministic
// simulation — the property the determinism tests pin. Each line is built
// in the free space of the sink's bufio.Writer, so emitting an event
// neither allocates nor copies the line a second time.
type NDJSONSink struct {
	mu sync.Mutex
	w  *bufio.Writer
}

// emitRoom is the free buffer space Emit makes before it builds a line.
// A line without its device name takes at most 152 bytes, so one whose
// name is at most 104 bytes is built in place; a longer line still comes
// out right, through a buffer that append allocates.
const emitRoom = 256

// NewNDJSONSink wraps w in a buffered NDJSON event writer. Call Flush when
// the run completes.
func NewNDJSONSink(w io.Writer) *NDJSONSink {
	return &NDJSONSink{w: bufio.NewWriter(w)}
}

// Emit implements Tracer.
func (s *NDJSONSink) Emit(e Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// A failed flush leaves its error in the writer, which discards every
	// later write and hands the error to Flush; the line would be dropped.
	if s.w.Available() < emitRoom && s.w.Flush() != nil {
		return
	}
	b := append(s.w.AvailableBuffer(), `{"t_us":`...)
	b = strconv.AppendInt(b, e.T, 10)
	b = append(b, kindMember(e.Kind)...)
	if e.Dev != "" {
		b = append(b, `,"dev":"`...)
		b = append(b, e.Dev...) // device names are catalog identifiers
		b = append(b, '"')
	}
	if e.Addr != 0 {
		b = append(b, `,"addr":`...)
		b = strconv.AppendInt(b, e.Addr, 10)
	}
	if e.Size != 0 {
		b = append(b, `,"size":`...)
		b = strconv.AppendInt(b, e.Size, 10)
	}
	if e.Dur != 0 {
		b = append(b, `,"dur_us":`...)
		b = strconv.AppendInt(b, e.Dur, 10)
	}
	b = append(b, "}\n"...)
	s.w.Write(b)
}

// kindMembers holds each named Kind's NDJSON member, pre-rendered; wire
// names are fixed identifiers, so none needs escaping.
var kindMembers = func() (m [numKinds]string) {
	for k := range m {
		m[k] = `,"kind":"` + Kind(k).String() + `"`
	}
	return m
}()

// kindMember returns k's `,"kind":"<name>"` NDJSON member.
func kindMember(k Kind) string {
	if k < numKinds {
		return kindMembers[k]
	}
	return `,"kind":"` + k.String() + `"`
}

// Flush drains the buffer and returns the first write error encountered
// (bufio retains the first error and discards subsequent writes).
func (s *NDJSONSink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Flush()
}

// Scope bundles a metrics registry and a tracer for one simulation run and
// is what gets threaded through the storage stack. The nil Scope is fully
// functional and free: every method no-ops or returns a nil (no-op) metric
// handle, so un-instrumented runs pay one nil check per site.
type Scope struct {
	reg *Registry
	tr  Tracer
	// kinds caches the kinds tr reads (none without a tracer).
	kinds KindSet
}

// NewScope builds a scope; either argument may be nil. The scope caches
// the kinds tr reads: its KindFilter set, or every kind.
func NewScope(reg *Registry, tr Tracer) *Scope {
	if reg == nil && tr == nil {
		return nil
	}
	s := &Scope{reg: reg, tr: tr}
	if tr != nil {
		s.kinds = kindsOf(tr)
	}
	return s
}

// Registry returns the scope's registry (nil for a nil scope).
func (s *Scope) Registry() *Registry {
	if s == nil {
		return nil
	}
	return s.reg
}

// Counter resolves a named counter; nil-safe.
func (s *Scope) Counter(name string) *Counter {
	if s == nil {
		return nil
	}
	return s.reg.Counter(name)
}

// Gauge resolves a named gauge; nil-safe.
func (s *Scope) Gauge(name string) *Gauge {
	if s == nil {
		return nil
	}
	return s.reg.Gauge(name)
}

// Histogram resolves a named histogram; nil-safe.
func (s *Scope) Histogram(name string) *Histogram {
	if s == nil {
		return nil
	}
	return s.reg.Histogram(name)
}

// Wants reports whether the tracer reads events of kind k. Emit sites ask
// before they build an event, so an event no tracer reads costs one bit
// test.
func (s *Scope) Wants(k Kind) bool {
	return s != nil && s.kinds.Has(k)
}

// Emit records an event if the tracer reads its kind. It spells Wants out
// so that it stays small enough to inline at every emit site.
func (s *Scope) Emit(e Event) {
	if s != nil && s.kinds&(1<<e.Kind) != 0 {
		s.tr.Emit(e)
	}
}
