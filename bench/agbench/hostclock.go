package main

import (
	"math"
	"time"
)

// The benchmark runs on shared hosts whose speed for the simulator drifts
// in phases: on the 2-vCPU host it was recorded on, the same pass took
// 1.2 s for a minute and 2.3 s the next, so a raw wall time measures the
// neighbours as much as the program. A hostClock measures that speed
// while a pass runs. A sampler goroutine wakes every probeEvery and times
// a probe, a fixed dependent chain of float math with exp over an
// L1-sized table, the kind of work a simulator step does. With
// GOMAXPROCS=1 the probe runs in place of the pass, on the same core,
// and its time is left out of the pass. Each stretch of the pass between
// two probes is rescaled by probeNominalMS over the mean of those two
// probes, which gives the pass's time on a host that runs a probe in
// probeNominalMS.
//
// Over minutes in which every workload's passes varied by up to 2x, the
// probe's time tracked theirs with correlation 0.94-0.99 and a log-log
// slope of 0.9-1.0; hashing, sorting, map, pointer-chasing and
// random-memory probes tracked them less closely. The probe is the
// benchmark's own code, so a change to the simulator moves only the
// pass, never the yardstick.

const (
	probeEvery = 20 * time.Millisecond
	// probeNominalMS is the probe's time on the recording host in a calm
	// phase; it only sets the scale of normalized seconds.
	probeNominalMS = 0.25
	probeTable     = 1 << 12 // float64s: 32 KB
	probeOps       = 24000
)

// hostClock times one pass and the probes run during it. A nil clock
// runs no probes and reports raw wall time as normalized time.
type hostClock struct {
	table []float64
	sink  float64

	// Written by the sampler goroutine between begin and finish.
	last   time.Time // end of the last probe
	lastMS float64   // the last probe's duration
	// rawS and normS are the pass's work time so far, raw and at nominal
	// host speed; probeS is the time spent probing.
	rawS, normS, probeS float64
	stop, done          chan struct{}
}

func newHostClock() *hostClock {
	return &hostClock{table: make([]float64, probeTable)}
}

// probe runs the fixed work once and returns its duration in ms.
func (c *hostClock) probe() float64 {
	t := time.Now()
	x := 1.0
	for i := 0; i < probeOps; i++ {
		j := (i * 7919) & (probeTable - 1)
		c.table[j] += x
		x = x*0.9999999 + c.table[(j+1)&(probeTable-1)]*1e-9 + math.Exp(-float64(i&1023)*1e-3)*1e-9
	}
	c.sink += x
	return ms(time.Since(t))
}

// begin starts a pass: it probes once, starts the sampler and returns
// when work starts.
func (c *hostClock) begin() time.Time {
	if c == nil {
		return time.Now()
	}
	t := time.Now()
	c.rawS, c.normS = 0, 0
	c.lastMS = c.probe()
	c.last = time.Now()
	c.probeS = c.last.Sub(t).Seconds()
	c.stop, c.done = make(chan struct{}), make(chan struct{})
	go c.sample()
	return c.last
}

// sample probes every probeEvery until stop is closed.
func (c *hostClock) sample() {
	defer close(c.done)
	t := time.NewTicker(probeEvery)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			c.measure()
		}
	}
}

// measure closes the stretch since the last probe with a new probe.
func (c *hostClock) measure() {
	t := time.Now()
	seg := t.Sub(c.last).Seconds()
	p := c.probe()
	c.rawS += seg
	c.normS += seg * probeNominalMS / ((c.lastMS + p) / 2)
	c.lastMS = p
	c.last = time.Now()
	c.probeS += c.last.Sub(t).Seconds()
}

// finish ends the pass begun at start and returns its wall time without
// the probes, and that time at nominal host speed.
func (c *hostClock) finish(start time.Time) (rawS, normS float64) {
	if c == nil {
		s := time.Since(start).Seconds()
		return s, s
	}
	close(c.stop)
	<-c.done
	c.measure()
	return c.rawS, c.normS
}
