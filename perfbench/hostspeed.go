package main

import (
	"bytes"
	"container/heap"
	"runtime"
)

// Host speed. The benchmark may run on a shared machine whose speed
// drifts by up to two times over minutes, as its neighbours come and go.
// Process CPU time does not remove that: a slowed CPU charges more CPU
// time for the same work. So every timed phase is bracketed by runs of a
// fixed reference kernel, and the phase's CPU time is scaled by how much
// slower than nominal the kernel ran around it. The kernel uses only the
// standard library, so no change to the program under test moves it.

// refNominal is the reference kernel's CPU time, in seconds, on a 2-vCPU
// 2.1 GHz Xeon host in its faster periods. Scaled host times read as
// seconds on that host.
const refNominal = 0.1

// hostClock brackets timed phases with reference runs.
type hostClock struct {
	refs []float64 // CPU seconds of every reference run so far
}

func newHostClock() *hostClock {
	return &hostClock{refs: []float64{refRun()}}
}

// scale runs the reference kernel again and returns the factor that
// turns the CPU seconds of the phases timed since the previous reference
// run into nominal seconds.
func (c *hostClock) scale() float64 {
	prev := c.refs[len(c.refs)-1]
	c.refs = append(c.refs, refRun())
	return refNominal / ((prev + c.refs[len(c.refs)-1]) / 2)
}

// scaleAll multiplies each of xs by the factor scale returns.
func (c *hostClock) scaleAll(xs []float64) {
	f := c.scale()
	for i := range xs {
		xs[i] *= f
	}
}

// refRun times one run of the reference kernel in CPU seconds. Its
// allocations are not counted into any phase's.
func refRun() float64 {
	runtime.GC()
	t0 := cpuTime()
	refKernel()
	return (cpuTime() - t0).Seconds()
}

// refKernel is a fixed mix of the two kinds of work the workloads do: an
// event queue of small heap objects with map lookups, like the
// simulator's, and bulk byte filling, copying and comparing, like
// payload I/O.
func refKernel() {
	q := &refQueue{}
	byID := map[int]*refItem{}
	x := uint64(88172645463325252)
	for i := 0; i < 4096; i++ {
		heap.Push(q, &refItem{at: int64(i), id: i, data: make([]byte, 64)})
	}
	for i := 0; i < 100000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		it := heap.Pop(q).(*refItem)
		byID[it.id%8192] = it
		heap.Push(q, &refItem{at: it.at + int64(x%1000), id: i, data: make([]byte, 32+x%96)})
		if y, ok := byID[int(x%8192)]; ok {
			refSink += len(y.data)
		}
	}

	src := make([][]byte, 16)
	for i := range src {
		src[i] = make([]byte, 1<<20)
		for j := range src[i] {
			src[i][j] = byte(j*7 + i)
		}
	}
	for r := 0; r < 12; r++ {
		for i := range src {
			dst := make([]byte, len(src[i]))
			copy(dst, src[i])
			if bytes.Equal(dst, src[(i+1)%len(src)]) {
				refSink++
			}
		}
	}
}

// refSink keeps the kernel's results live.
var refSink int

type refItem struct {
	at   int64
	id   int
	data []byte
}

type refQueue []*refItem

func (q refQueue) Len() int           { return len(q) }
func (q refQueue) Less(i, j int) bool { return q[i].at < q[j].at }
func (q refQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)        { *q = append(*q, x.(*refItem)) }
func (q *refQueue) Pop() any {
	old := *q
	it := old[len(old)-1]
	*q = old[:len(old)-1]
	return it
}
