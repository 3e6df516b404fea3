package mpiio

import (
	"harl/internal/device"
	"harl/internal/sim"
	"harl/internal/trace"
)

// TracingFile is the IOSIG interposition layer: a pluggable wrapper that
// records every request flowing to the underlying file — rank, operation,
// offset, size and begin/end timestamps — into a trace collector. HARL's
// Tracing Phase wraps the application's file with it on the first run.
//
// The wrapper sits where the paper's MPICH2 integration sits: below the
// application (and below collective buffering, so the recorded requests
// are the ones the PFS actually serves) and above the file system.
type TracingFile struct {
	inner     File
	collector *trace.Collector
	engine    *sim.Engine
	fd        int
	pid       int
}

// Trace wraps a file so all traffic is recorded into collector.
func (w *World) Trace(f File, collector *trace.Collector) *TracingFile {
	return &TracingFile{inner: f, collector: collector, engine: w.engine, fd: w.fd(), pid: 1000}
}

// Name returns the wrapped file's name.
func (f *TracingFile) Name() string { return f.inner.Name() }

// Inner returns the wrapped file.
func (f *TracingFile) Inner() File { return f.inner }

// WriteAt implements File, recording the request around the inner call.
func (f *TracingFile) WriteAt(rank int, off int64, data []byte, done func(error)) {
	start := f.engine.Now()
	f.inner.WriteAt(rank, off, data, func(err error) {
		f.record(rank, device.Write, off, int64(len(data)), start)
		done(err)
	})
}

// ReadAt implements File, recording the request around the inner call.
func (f *TracingFile) ReadAt(rank int, off, size int64, done func([]byte, error)) {
	start := f.engine.Now()
	f.inner.ReadAt(rank, off, size, func(data []byte, err error) {
		f.record(rank, device.Read, off, size, start)
		done(data, err)
	})
}

// record collects one completed request that began at start; empty
// requests move no data and are not traced.
func (f *TracingFile) record(rank int, op device.Op, off, size int64, start sim.Time) {
	if size > 0 {
		f.collector.Record(trace.Record{
			PID: f.pid + rank, Rank: rank, FD: f.fd,
			Op: op, Offset: off, Size: size,
			Start: start, End: f.engine.Now(),
		})
	}
}
