package sim

import (
	"fmt"
	"math"
	"slices"
	"testing"
)

// idleModel is a test Idler with both kinds of idle span the platform
// models have. After a wake event it works for busyLen cycles, then burns
// a pause of pauseLen cycles (a bounded span that ends in work: the next
// Tick schedules its following wake), then sleeps until that wake (an
// open span only an event can end). When gaps runs out it sleeps for good.
type idleModel struct {
	e    *Engine
	name string
	log  *[]string

	busyLen, pauseLen uint64
	gaps              []uint64

	busy, pause uint64
	armed       bool

	// wakes, work and idle are the model's observable counters; ticks
	// counts Tick calls, which is all that skipping may change.
	wakes             int
	work, idle, ticks uint64
}

func (m *idleModel) Tick(now uint64) {
	m.ticks++
	switch {
	case m.busy > 0:
		m.busy--
		m.work++
		if m.busy == 0 {
			m.pause, m.armed = m.pauseLen, true
		}
	case m.pause > 0:
		m.pause--
		m.idle++
	case m.armed:
		m.armed = false
		m.work++
		if len(m.gaps) > 0 {
			m.e.Schedule(m.gaps[0], m.wake)
			m.gaps = m.gaps[1:]
		}
	default:
		m.idle++
	}
}

func (m *idleModel) IdleUntil(now uint64) uint64 {
	switch {
	case m.busy > 0:
		return now
	case m.pause > 0:
		return now + m.pause
	case m.armed:
		return now
	}
	return math.MaxUint64
}

func (m *idleModel) Skip(n uint64) {
	if m.pause > 0 {
		m.pause -= n
	}
	m.idle += n
}

func (m *idleModel) wake(now uint64) {
	*m.log = append(*m.log, fmt.Sprintf("%s wakes at %d", m.name, now))
	m.wakes++
	m.busy = m.busyLen
}

// idleCase is one scenario's engine, models and transcript.
type idleCase struct {
	e      *Engine
	log    []string
	models []*idleModel
}

func (c *idleCase) model(name string, busy, pause uint64, gaps ...uint64) *idleModel {
	m := &idleModel{e: c.e, name: name, log: &c.log, busyLen: busy, pauseLen: pause, gaps: gaps}
	c.e.AddTicker(m)
	c.models = append(c.models, m)
	return m
}

func (c *idleCase) logf(format string, args ...any) {
	c.log = append(c.log, fmt.Sprintf(format, args...))
}

// mark schedules an event that only logs its firing cycle.
func (c *idleCase) mark(cycle uint64, name string) {
	c.e.ScheduleAt(cycle, func(now uint64) { c.logf("%s fires at %d", name, now) })
}

// stopAt schedules an event that stops the engine.
func (c *idleCase) stopAt(cycle uint64) {
	c.e.ScheduleAt(cycle, func(now uint64) {
		c.logf("stop at %d", now)
		c.e.Stop()
	})
}

func (c *idleCase) run(n uint64) {
	got := c.e.Run(n)
	c.logf("Run(%d) = %d, now %d", n, got, c.e.Now())
}

func (c *idleCase) runUntil(cond func() bool, max uint64) {
	cycles, ok := c.e.RunUntil(cond, max)
	c.logf("RunUntil(max %d) = (%d, %v), now %d", max, cycles, ok, c.e.Now())
}

// checkEquivalent plays scenario twice: on an engine that skips idle
// spans, and on a reference engine that a no-op TickFunc pins to stepping
// every cycle. Both transcripts — event firing cycles, Run/RunUntil
// results, Now() and every model counter — must match, and the skipping
// engine must actually have skipped.
func checkEquivalent(t *testing.T, scenario func(c *idleCase)) {
	t.Helper()
	play := func(reference bool) *idleCase {
		c := &idleCase{e: NewEngine(DefaultFrequency)}
		if reference {
			c.e.AddTicker(TickFunc(func(uint64) {}))
		}
		scenario(c)
		for _, m := range c.models {
			c.logf("%s: wakes %d work %d idle %d", m.name, m.wakes, m.work, m.idle)
		}
		return c
	}
	skip, ref := play(false), play(true)
	if !slices.Equal(skip.log, ref.log) {
		t.Fatalf("skipping engine diverged from per-cycle reference\nskip: %q\nref:  %q", skip.log, ref.log)
	}
	var skipTicks, refTicks uint64
	for i := range skip.models {
		skipTicks += skip.models[i].ticks
		refTicks += ref.models[i].ticks
	}
	if skipTicks >= refTicks {
		t.Fatalf("nothing skipped: %d ticks, reference %d", skipTicks, refTicks)
	}
}

// TestIdleSkipJumpsOntoFarHeapEvent: jumps longer than the ring window
// must land exactly on far-heap events.
func TestIdleSkipJumpsOntoFarHeapEvent(t *testing.T) {
	checkEquivalent(t, func(c *idleCase) {
		m := c.model("m", 3, 5)
		c.mark(2*ringWindow, "far0")
		c.e.ScheduleAt(5*ringWindow+3, m.wake)
		c.run(8 * ringWindow)
	})
}

// TestIdleSkipFindsRingEventAcrossWrap: the next-event scan must wrap from
// the ring's last word to its first, and from the start word's high bits
// round to its low ones; stale bits over fired buckets must not stop it.
func TestIdleSkipFindsRingEventAcrossWrap(t *testing.T) {
	checkEquivalent(t, func(c *idleCase) {
		m := c.model("m", 2, 4)
		c.run(ringWindow - 10)              // start slot 1014, in the last word
		c.e.Schedule(20, m.wake)            // slot 10, in the first word
		c.run(100)                          // now slot 90: word 1, bit 26
		c.e.Schedule(ringWindow-24, m.wake) // slot 66: word 1, bit 2
		c.mark(c.e.Now()+ringWindow-1, "last-slot")
		c.run(2 * ringWindow)
	})
}

// TestIdleSkipClampsToRunLimits: a skip never runs past Run's n or
// RunUntil's max, whether the span is open (asleep) or bounded (paused).
func TestIdleSkipClampsToRunLimits(t *testing.T) {
	checkEquivalent(t, func(c *idleCase) {
		m := c.model("m", 2, 300)
		c.e.ScheduleAt(3000, m.wake)
		woke := func() bool { return m.wakes > 0 }
		c.run(1234)           // ends mid-sleep
		c.runUntil(woke, 500) // max mid-sleep: (500, false)
		c.runUntil(woke, 10_000)
		c.run(100)                                          // ends mid-pause
		c.runUntil(func() bool { return m.work == 3 }, 150) // max mid-pause
		c.runUntil(func() bool { return m.work == 3 }, 10_000)
		c.runUntil(func() bool { return false }, 777)
	})
}

// TestIdleSkipHonorsPendingStop: a Stop fired by an event mid-run ends the
// run after that cycle; one requested between runs ends the next at once.
func TestIdleSkipHonorsPendingStop(t *testing.T) {
	checkEquivalent(t, func(c *idleCase) {
		m := c.model("m", 1, 1, 400)
		never := func() bool { return false }
		c.stopAt(700)
		c.e.ScheduleAt(1500, m.wake)
		c.run(5000)
		c.run(5000)
		c.e.Stop()
		c.run(10)
		c.e.Stop()
		c.runUntil(never, 100)
		c.stopAt(c.e.Now() + 900)
		c.runUntil(never, 5000)
	})
}

// TestIdleSkipStopOnLastStep: a Stop fired during the final cycle of a run
// cannot end that run early, so it stays pending for the next one.
func TestIdleSkipStopOnLastStep(t *testing.T) {
	checkEquivalent(t, func(c *idleCase) {
		c.model("m", 1, 1)
		never := func() bool { return false }
		c.stopAt(999)
		c.run(1000)
		c.run(50)
		c.run(50)
		c.stopAt(c.e.Now() + 99)
		c.runUntil(never, 100)
		c.runUntil(never, 100)
		c.runUntil(never, 100)
	})
}

// TestIdleSkipRandomSchedules: several models with random work, pauses and
// wake gaps spanning the ring and the far heap, driven by random Run and
// RunUntil limits.
func TestIdleSkipRandomSchedules(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			checkEquivalent(t, func(c *idleCase) {
				r := NewRNG(seed)
				var ms []*idleModel
				for i := 0; i < 3; i++ {
					gaps := make([]uint64, 20)
					for j := range gaps {
						gaps[j] = uint64(r.Intn(3 * ringWindow))
					}
					m := c.model(fmt.Sprint("m", i), uint64(1+r.Intn(8)), uint64(r.Intn(200)), gaps...)
					c.e.Schedule(uint64(r.Intn(ringWindow)), m.wake)
					ms = append(ms, m)
				}
				for k := 0; k < 30; k++ {
					limit := uint64(1 + r.Intn(2*ringWindow))
					if k%2 == 0 {
						c.run(limit)
						continue
					}
					m, want := ms[r.Intn(len(ms))], 1+r.Intn(3)
					c.runUntil(func() bool { return m.wakes >= want }, limit)
				}
			})
		})
	}
}
