package main

import (
	"runtime"
	"sync"
	"time"
)

// The host the benchmark runs on is shared, and its speed drifts: on the
// machine the benchmark was sized on, each core switched between two speeds
// 1.5x apart in spells of seconds, on its own, and the faster speed itself
// moved by 30% over minutes. No statistic of raw wall times over a 20 s
// run is steady under that. So every end-to-end time is normalised: a fixed
// kernel, which is the benchmark's own code and never changes with the
// program, is timed at each boundary of the measured work, and each
// interval of wall time is scaled by how fast the kernel ran at its two
// ends. The metrics read as host time on a host that runs the kernel in
// refKernelSecs.

const (
	// refKernelSecs is the reference time of one kernel run: about its
	// time on the machine the benchmark was sized on.
	refKernelSecs = 500e-6
	// kernelSteps and kernelWords size the kernel: ~0.5 ms of random
	// read-modify-writes over 256 KiB, map updates and data-dependent
	// branches, the kinds of work the simulators and the server do.
	kernelSteps = 60000
	kernelWords = 1 << 15
)

// kernelState is one kernel's memory, reused so that the kernel does not
// allocate.
type kernelState struct {
	buf []int64
	m   map[int64]int64
	out int64
}

// kernels holds one kernel state per processor the Go runtime uses.
var kernels = func() []*kernelState {
	k := make([]*kernelState, runtime.GOMAXPROCS(0))
	for i := range k {
		k[i] = &kernelState{buf: make([]int64, kernelWords), m: make(map[int64]int64, 1024)}
	}
	return k
}()

// run executes the kernel and returns its wall time in seconds.
func (k *kernelState) run() float64 {
	start := time.Now()
	clear(k.buf)
	clear(k.m)
	x, acc := int64(12345), int64(0)
	for i := 0; i < kernelSteps; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		j := (x >> 33) & (kernelWords - 1)
		if v := k.buf[j]; v&3 == 1 {
			acc += v
		} else {
			k.buf[j] = v + x>>40
		}
		if i&7 == 0 {
			key := (x >> 20) & 1023
			k.m[key] += acc & 255
			acc ^= k.m[(key*7)&1023]
		}
	}
	k.out = acc
	return time.Since(start).Seconds()
}

// hostClock measures a sequence of intervals in normalised seconds. Each
// mark calibrates, and an interval's wall time, excluding the
// calibrations, is scaled by the mean host speed at its two ends: the
// reference kernel time over the measured one, below 1 when the host is
// slower. A serial clock times one kernel on the caller's own thread, for
// work that runs on one goroutine, since each core's speed drifts on its
// own. Otherwise one kernel runs on every processor at once, as the
// measured work does, and the speed is their mean.
type hostClock struct {
	serial bool
	last   time.Time // end of the latest calibration
	speed  float64   // host speed measured then
}

func (c *hostClock) calibrate() float64 {
	if c.serial {
		return refKernelSecs / kernels[0].run()
	}
	speeds := make([]float64, len(kernels))
	var wg sync.WaitGroup
	for i, k := range kernels {
		wg.Add(1)
		go func() {
			defer wg.Done()
			speeds[i] = refKernelSecs / k.run()
		}()
	}
	wg.Wait()
	return sum(speeds) / float64(len(speeds))
}

// start calibrates and begins the first interval.
func (c *hostClock) start() {
	c.speed = c.calibrate()
	c.last = time.Now()
}

// mark ends the current interval, calibrates, begins the next interval,
// and returns the ended interval's wall and normalised seconds.
func (c *hostClock) mark() (wall, norm float64) {
	wall = time.Since(c.last).Seconds()
	speed := c.calibrate()
	norm = wall * (c.speed + speed) / 2
	c.speed, c.last = speed, time.Now()
	return wall, norm
}
