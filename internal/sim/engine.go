// Package sim provides the deterministic cycle-driven simulation engine that
// every hardware model in this repository runs on.
//
// The engine advances a global cycle counter. Work is expressed two ways:
//
//   - Tickers: components registered with AddTicker model always-on
//     synchronous logic (CPU cores, bus arbiters). Step calls every ticker
//     once per cycle, in registration order.
//   - Events: one-shot callbacks scheduled at an absolute or relative cycle.
//     Events scheduled for the same cycle fire in scheduling order, giving
//     bit-identical runs for identical inputs.
//
// Within one cycle the engine first fires all events due at that cycle, then
// ticks every registered Ticker. Events scheduled by a ticker for the
// current cycle run before the cycle ends (after all tickers), so a
// component may hand work to another component with zero-cycle latency when
// modeling combinational paths.
//
// # Idle skipping
//
// A ticker that also implements Idler tells the engine how long its Tick
// would only count: IdleUntil(now) is the earliest cycle at which Tick may
// do more, and Skip(n) books n such cycles in bulk (a stalled core adds n
// to its cycle and stall counters). When every ticker is an Idler and no
// event is due, Run and RunUntil jump the clock straight to the earliest of
// the idlers' wake cycles, the next pending event and the run's own limit,
// calling Skip on each ticker instead of stepping. Nothing in the model
// can change during such a span — no event fires and every Tick would only
// count — so counters, event cycles and results are identical to stepping
// cycle by cycle. An engine with no tickers, or with any ticker that is
// not an Idler (such as a TickFunc), steps every cycle. Step and Drain
// always advance exactly one cycle per step.
//
// Because skipped cycles evaluate nothing, RunUntil's cond must depend on
// model state (flags set by callbacks, halted cores), never on Now(): a
// cond that becomes true at a given cycle while the model is idle would be
// passed over.
//
// # Event queue implementation
//
// The queue is a bucketed calendar queue: a fixed ring of per-cycle event
// slices covers the near-future window [now, now+ringWindow), and a binary
// heap holds the (rare) events scheduled further out. Scheduling into the
// ring is an append into the bucket for that cycle; firing walks the
// current bucket in append order. Bucket slices and the far heap keep
// their capacity across cycles, so steady-state Schedule/fire does zero
// heap allocations. ScheduleArg additionally lets hot callers pass a
// pre-bound callback plus a pointer argument instead of allocating a fresh
// closure per event. An occupancy bitmap over the ring marks non-empty
// buckets, so idle skipping finds the next ring event in a few word scans.
//
// Determinism contract: same-cycle events fire in schedule order, across
// the ring/heap boundary too. An event for cycle X only lands in the far
// heap while X >= now+ringWindow, i.e. strictly before any event for X can
// land in the ring (which requires X < now+ringWindow and the clock never
// runs backwards), so every heap-resident event for a cycle was scheduled
// before every ring-resident event for the same cycle. Firing heap events
// first (in cycle, then schedule order) therefore preserves global FIFO
// order within a cycle.
package sim

import (
	"fmt"
	"math"
	"math/bits"
)

// Ticker is synchronous logic evaluated once per cycle.
type Ticker interface {
	// Tick is called with the current cycle number for every cycle the
	// engine steps; cycles skipped while idle are booked through Idler.
	Tick(now uint64)
}

// Idler is the optional half of a Ticker that lets the engine skip cycles
// in which the component's Tick would only count.
type Idler interface {
	// IdleUntil returns the earliest cycle at which Tick may do more than
	// count, given that no event fires before it. A value <= now means
	// the component is active now; math.MaxUint64 means only an event can
	// wake it.
	IdleUntil(now uint64) uint64
	// Skip accounts n skipped cycles in bulk, exactly as n calls to Tick
	// in the idle span would have.
	Skip(n uint64)
}

// TickFunc adapts a plain function to the Ticker interface.
type TickFunc func(now uint64)

// Tick implements Ticker.
func (f TickFunc) Tick(now uint64) { f(now) }

// ringWindow is the calendar-queue near-future window in cycles. Must be a
// power of two. Events at least this far ahead overflow into the far heap.
const ringWindow = 1024

// occWords is the size of the ring-occupancy bitmap in 64-bit words.
const occWords = ringWindow / 64

// ticker is one registered Ticker together with its Idler half (nil when
// the ticker cannot be skipped).
type ticker struct {
	t    Ticker
	idle Idler
}

// event is one scheduled callback: either a plain closure (fn) or a
// pre-bound callback with its argument (afn, arg) for allocation-free
// scheduling on hot paths.
type event struct {
	fn  func(now uint64)
	afn func(now uint64, arg any)
	arg any
}

func (ev *event) fire(now uint64) {
	if ev.fn != nil {
		ev.fn(now)
		return
	}
	ev.afn(now, ev.arg)
}

// farEvent is an event beyond the ring window, ordered by (cycle, seq).
type farEvent struct {
	cycle uint64
	seq   uint64
	ev    event
}

// Engine is the cycle-driven simulation kernel. The zero value is not
// usable; construct with NewEngine.
type Engine struct {
	now     uint64
	seq     uint64
	tickers []ticker
	// plain counts tickers that are not Idlers; any one of them pins
	// the engine to stepping every cycle. hot is the ticker that last
	// reported itself active: the idle check asks it first, because an
	// active component usually stays active for several cycles.
	plain int
	hot   int

	// Calendar queue: ring[c & (ringWindow-1)] buckets events due at
	// cycle c within the near window; far holds everything else as a
	// binary min-heap on (cycle, seq). fireIdx is the firing cursor into
	// the current cycle's bucket (events appended mid-fire are seen
	// because the loop re-reads the bucket length). pending counts all
	// scheduled, not-yet-fired events across both structures. Bit i of
	// occ is set whenever ring[i] is non-empty; a set bit over an empty
	// bucket is stale and cleared by the next-event scan, which keeps
	// the bitmap off the per-cycle path.
	ring    [ringWindow][]event
	occ     [occWords]uint64
	fireIdx int
	far     []farEvent
	pending int

	freq    Frequency
	stopped bool
}

// NewEngine returns an engine whose clock runs at the given frequency.
// The frequency only affects cycle-to-wall-time conversions; simulation
// semantics are purely cycle-based.
func NewEngine(freq Frequency) *Engine {
	if freq <= 0 {
		freq = DefaultFrequency
	}
	return &Engine{freq: freq}
}

// Now returns the current cycle number.
func (e *Engine) Now() uint64 { return e.now }

// Frequency returns the simulated clock frequency.
func (e *Engine) Frequency() Frequency { return e.freq }

// AddTicker registers t to be ticked once per cycle. Tickers run in
// registration order after all events due in the cycle have fired. A
// ticker that also implements Idler lets Run and RunUntil skip cycles in
// which it is idle (see the package comment).
func (e *Engine) AddTicker(t Ticker) {
	if t == nil {
		panic("sim: AddTicker(nil)")
	}
	idle, _ := t.(Idler)
	if idle == nil {
		e.plain++
	}
	e.tickers = append(e.tickers, ticker{t: t, idle: idle})
}

// Schedule runs fn after delay cycles (delay 0 means later in the current
// cycle if the engine is mid-step, otherwise at the current cycle).
func (e *Engine) Schedule(delay uint64, fn func(now uint64)) {
	e.scheduleEvent(e.now+delay, event{fn: fn})
}

// ScheduleAt runs fn at absolute cycle. Scheduling in the past panics: it
// indicates a causality bug in a hardware model.
func (e *Engine) ScheduleAt(cycle uint64, fn func(now uint64)) {
	e.scheduleEvent(cycle, event{fn: fn})
}

// ScheduleArg runs fn(now, arg) after delay cycles. It is the
// allocation-free form of Schedule for hot paths: the caller passes a
// long-lived callback (package function or a closure created once at
// construction) and threads per-event state through arg, typically a
// pointer, instead of capturing it in a fresh closure per event.
func (e *Engine) ScheduleArg(delay uint64, fn func(now uint64, arg any), arg any) {
	e.scheduleEvent(e.now+delay, event{afn: fn, arg: arg})
}

// ScheduleArgAt is ScheduleArg at an absolute cycle.
func (e *Engine) ScheduleArgAt(cycle uint64, fn func(now uint64, arg any), arg any) {
	e.scheduleEvent(cycle, event{afn: fn, arg: arg})
}

func (e *Engine) scheduleEvent(cycle uint64, ev event) {
	if ev.fn == nil && ev.afn == nil {
		panic("sim: schedule with nil callback")
	}
	if cycle < e.now {
		panic(fmt.Sprintf("sim: schedule at cycle %d in the past (now=%d)", cycle, e.now))
	}
	e.pending++
	if cycle < e.now+ringWindow {
		i := cycle & (ringWindow - 1)
		e.ring[i] = append(e.ring[i], ev)
		e.occ[i/64] |= 1 << (i % 64)
		return
	}
	e.seq++
	e.farPush(farEvent{cycle: cycle, seq: e.seq, ev: ev})
}

// Stop requests that the current (or next) Run/RunUntil call return after
// the current cycle completes. A stop with no run in progress stays
// pending and is honored by the next Run/RunUntil, which returns
// immediately without stepping.
func (e *Engine) Stop() { e.stopped = true }

// Step advances the simulation by exactly one cycle: fire due events, then
// tick every ticker, then fire any events those tickers scheduled for the
// same cycle, then advance the clock.
func (e *Engine) Step() {
	e.fireDue()
	for _, t := range e.tickers {
		t.t.Tick(e.now)
	}
	e.fireDue() // zero-latency events scheduled during ticking
	i := e.now & (ringWindow - 1)
	e.ring[i] = e.ring[i][:0]
	e.fireIdx = 0
	e.now++
}

func (e *Engine) fireDue() {
	// Far events first: they were necessarily scheduled before any
	// ring-resident event for this cycle (see the package comment), and a
	// firing callback cannot add new far events due this cycle (that
	// would need cycle <= now < now+ringWindow, which lands in the ring).
	for len(e.far) > 0 && e.far[0].cycle <= e.now {
		fe := e.farPop()
		e.pending--
		fe.ev.fire(e.now)
	}
	slot := &e.ring[e.now&(ringWindow-1)]
	for e.fireIdx < len(*slot) {
		ev := (*slot)[e.fireIdx]
		(*slot)[e.fireIdx] = event{} // drop references once fired
		e.fireIdx++
		e.pending--
		ev.fire(e.now)
	}
}

// farPush and farPop maintain the far-future binary min-heap ordered by
// (cycle, seq), without container/heap's interface boxing.
func (e *Engine) farPush(fe farEvent) {
	e.far = append(e.far, fe)
	i := len(e.far) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !farLess(e.far[i], e.far[parent]) {
			break
		}
		e.far[i], e.far[parent] = e.far[parent], e.far[i]
		i = parent
	}
}

func (e *Engine) farPop() farEvent {
	top := e.far[0]
	n := len(e.far) - 1
	e.far[0] = e.far[n]
	e.far[n] = farEvent{}
	e.far = e.far[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && farLess(e.far[l], e.far[small]) {
			small = l
		}
		if r < n && farLess(e.far[r], e.far[small]) {
			small = r
		}
		if small == i {
			break
		}
		e.far[i], e.far[small] = e.far[small], e.far[i]
		i = small
	}
	return top
}

func farLess(a, b farEvent) bool {
	if a.cycle != b.cycle {
		return a.cycle < b.cycle
	}
	return a.seq < b.seq
}

// idleSpan returns how many cycles, at most limit, the engine can skip
// from now without changing anything but counters: every ticker is an
// idle Idler and no event is due before the span ends. It returns 0 when
// the current cycle must be stepped.
func (e *Engine) idleSpan(limit uint64) uint64 {
	if e.plain > 0 || len(e.tickers) == 0 || e.dueNow() {
		return 0
	}
	if e.tickers[e.hot].idle.IdleUntil(e.now) <= e.now {
		return 0
	}
	until := e.now + limit
	if until < e.now {
		until = math.MaxUint64
	}
	for i, t := range e.tickers {
		u := t.idle.IdleUntil(e.now)
		if u <= e.now {
			e.hot = i
			return 0
		}
		until = min(until, u)
	}
	if c, ok := e.nextRingEvent(); ok {
		until = min(until, c)
	}
	if len(e.far) > 0 {
		until = min(until, e.far[0].cycle)
	}
	return until - e.now
}

// dueNow reports whether any event is due at the current cycle.
func (e *Engine) dueNow() bool {
	return len(e.ring[e.now&(ringWindow-1)]) > 0 || (len(e.far) > 0 && e.far[0].cycle <= e.now)
}

// nextRingEvent returns the cycle of the nearest non-empty ring bucket,
// scanning the occupancy bitmap circularly from the current cycle's slot.
// It must only be called when no event is due now.
func (e *Engine) nextRingEvent() (uint64, bool) {
	start := e.now & (ringWindow - 1)
	w, b := start/64, start%64
	word := e.occ[w] >> b << b // the start word's slots at or after start
	for i := 0; ; {
		for word != 0 {
			bit := uint64(bits.TrailingZeros64(word))
			slot := w*64 + bit
			if len(e.ring[slot]) > 0 {
				return e.now + (slot-start)&(ringWindow-1), true
			}
			word &^= 1 << bit
			e.occ[w] &^= 1 << bit // stale: the bucket has fired since
		}
		if i == occWords {
			return 0, false
		}
		i++
		w = (w + 1) % occWords
		word = e.occ[w]
		if i == occWords {
			word &= 1<<b - 1 // back at the start word: only the wrapped slots
		}
	}
}

// skip advances the clock by n idle cycles, booking them on every ticker.
func (e *Engine) skip(n uint64) {
	for _, t := range e.tickers {
		t.idle.Skip(n)
	}
	e.now += n
}

// Run advances the simulation by n cycles (or until Stop is called) and
// returns the number of cycles actually executed. A stop requested before
// Run is entered (for example by an event that fired at the tail of a
// previous Run) is honored: Run consumes it and returns 0 immediately.
// Idle spans are skipped (see the package comment); the result is the
// same as stepping them.
func (e *Engine) Run(n uint64) uint64 {
	if e.stopped {
		e.stopped = false
		return 0
	}
	var done uint64
	for done < n {
		if e.stopped {
			e.stopped = false // honored: this run ends early
			return done
		}
		if k := e.idleSpan(n - done); k > 0 {
			e.skip(k)
			done += k
			continue
		}
		e.Step()
		done++
	}
	// A stop that fired during the final step stays pending: the run did
	// not end because of it, so the next Run/RunUntil must honor it.
	return done
}

// RunUntil steps the engine until cond returns true, Stop is called, or max
// cycles elapse. It returns the number of cycles executed and whether cond
// was satisfied. cond is evaluated before each step, so a condition that is
// already true costs zero cycles. A stop pending from before the call is
// consumed and returns (0, false) without stepping; as with Run, a stop
// that fires during the final step stays pending for the next call.
//
// cond must depend on model state only, never on Now(): idle spans are
// skipped without evaluating it, which is exact only because nothing cond
// may read changes while the model is idle.
func (e *Engine) RunUntil(cond func() bool, max uint64) (cycles uint64, ok bool) {
	if e.stopped {
		e.stopped = false
		return 0, false
	}
	for cycles < max {
		if cond() {
			return cycles, true
		}
		if e.stopped {
			e.stopped = false
			return cycles, false
		}
		if k := e.idleSpan(max - cycles); k > 0 {
			e.skip(k)
			cycles += k
			continue
		}
		e.Step()
		cycles++
	}
	return cycles, cond()
}

// Drain runs until the event queue is empty or max cycles elapse. Tickers
// still run each cycle; Drain is intended for tests of pure event logic.
func (e *Engine) Drain(max uint64) uint64 {
	var done uint64
	for done < max && e.pending > 0 {
		e.Step()
		done++
	}
	return done
}

// Pending returns the number of scheduled events not yet fired.
func (e *Engine) Pending() int { return e.pending }

// Elapsed converts the current cycle count to simulated wall time in
// seconds.
func (e *Engine) Elapsed() float64 { return float64(e.now) / float64(e.freq) }

// CyclesToSeconds converts a cycle count to simulated seconds at the engine
// frequency.
func (e *Engine) CyclesToSeconds(cycles uint64) float64 {
	return float64(cycles) / float64(e.freq)
}

// ThroughputMbps converts "bits moved in cycles" into megabits per second
// at the engine frequency. It returns +Inf for zero cycles so callers can
// detect degenerate measurements.
func (e *Engine) ThroughputMbps(bits, cycles uint64) float64 {
	if cycles == 0 {
		return math.Inf(1)
	}
	seconds := float64(cycles) / float64(e.freq)
	return float64(bits) / seconds / 1e6
}
