package main

import (
	"sync"
	"time"
)

// The host reference: a fixed dense LU factorisation and a pass over a
// buffer larger than the caches, in plain Go. It shares no code with the
// repository, so its time tracks only the speed the host gives the run.
// It is timed between operations throughout a run, and every end-to-end
// time is scaled by refNominalMS over the reference time measured just
// before it: the figures read as if taken on a host where the reference
// takes refNominalMS. On a shared host whose speed drifts by tens of
// percent from minute to minute, this keeps runs comparable; the raw
// figures are reported beside the scaled ones.
const (
	refN         = 200
	refStream    = 1 << 20 // float64s: 8 MiB
	refEvery     = 250 * time.Millisecond
	refNominalMS = 8.0
)

var calib struct {
	mu     sync.Mutex
	last   time.Time
	ms     []float64
	a, buf []float64
	sink   float64
}

// calibrate times the reference when refEvery has passed since the last
// timing. Callers run it between operations.
func calibrate() {
	calib.mu.Lock()
	defer calib.mu.Unlock()
	if time.Since(calib.last) >= refEvery {
		timeRefLocked()
	}
}

// measureRef times the reference now and returns its time in ms.
func measureRef() float64 {
	calib.mu.Lock()
	defer calib.mu.Unlock()
	return timeRefLocked()
}

func timeRefLocked() float64 {
	if calib.a == nil {
		calib.a = make([]float64, refN*refN)
		calib.buf = make([]float64, refStream)
	}
	t0 := time.Now()
	a := calib.a
	for i := range a {
		a[i] = float64((i*7919)%1000)/1000 + 0.5
		if i%(refN+1) == 0 {
			a[i] += refN
		}
	}
	for k := 0; k < refN; k++ {
		krow := a[k*refN : (k+1)*refN]
		for i := k + 1; i < refN; i++ {
			row := a[i*refN : (i+1)*refN]
			f := row[k] / krow[k]
			for j := k + 1; j < refN; j++ {
				row[j] -= f * krow[j]
			}
		}
	}
	s := a[len(a)-1]
	for rep := 0; rep < 4; rep++ {
		for i := range calib.buf {
			calib.buf[i] = calib.buf[i]*0.5 + s
		}
	}
	calib.sink += calib.buf[refStream/2]
	ms := time.Since(t0).Seconds() * 1e3
	calib.ms = append(calib.ms, ms)
	calib.last = time.Now()
	return ms
}

// refNow returns the median of the last three reference timings in ms.
func refNow() float64 {
	calib.mu.Lock()
	defer calib.mu.Unlock()
	return median(calib.ms[max(len(calib.ms)-3, 0):])
}

// refMedian returns the median reference time in ms and the sample count.
func refMedian() (float64, int) {
	calib.mu.Lock()
	defer calib.mu.Unlock()
	return median(calib.ms), len(calib.ms)
}
