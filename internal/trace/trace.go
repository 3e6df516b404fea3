// Package trace is the IOSIG stand-in: it collects, stores and analyzes
// the run-time I/O access information HARL's analysis phase consumes
// (Section III-B of the paper).
//
// A trace is a sequence of records, one per file request, carrying exactly
// the fields the paper lists: process ID, MPI rank, file descriptor,
// operation type, offset, request size, and timestamps. The package
// provides a collector for instrumented runs, a line-oriented text codec
// for trace files, offset sorting (the collector sorts requests in
// ascending offset order to feed the region-division algorithm), and
// workload summaries.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"harl/internal/device"
	"harl/internal/sim"
)

// Record is one traced file request.
type Record struct {
	PID    int       // operating-system process id
	Rank   int       // MPI rank
	FD     int       // file descriptor
	Op     device.Op // read or write
	Offset int64     // file offset, bytes
	Size   int64     // request size, bytes
	Start  sim.Time  // operation begin timestamp
	End    sim.Time  // operation end timestamp
}

// Validate reports whether the record is well-formed.
func (r Record) Validate() error {
	switch {
	case r.Offset < 0:
		return fmt.Errorf("trace: negative offset %d", r.Offset)
	case r.Size <= 0:
		return fmt.Errorf("trace: non-positive size %d", r.Size)
	case r.Offset > math.MaxInt64-r.Size:
		return fmt.Errorf("trace: extent %d+%d overflows int64", r.Offset, r.Size)
	case r.End < r.Start:
		return fmt.Errorf("trace: end %v before start %v", r.End, r.Start)
	case r.Op != device.Read && r.Op != device.Write:
		return fmt.Errorf("trace: unknown op %d", r.Op)
	}
	return nil
}

// Trace is an ordered collection of records.
type Trace struct {
	Records []Record
}

// Collector accumulates records during an instrumented run. It is the
// "trace collector" of the paper's Tracing Phase.
type Collector struct {
	trace Trace
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// Record appends one request; malformed records panic, as they always
// indicate an instrumentation bug rather than bad input data.
func (c *Collector) Record(r Record) {
	if err := r.Validate(); err != nil {
		panic(err)
	}
	c.trace.Records = append(c.trace.Records, r)
}

// Trace returns the collected trace. The records are returned in capture
// order; call SortByOffset before feeding the region divider.
func (c *Collector) Trace() *Trace { return &c.trace }

// Len returns the number of records.
func (t *Trace) Len() int { return len(t.Records) }

// SortByOffset sorts records by ascending offset (stable, so equal-offset
// requests keep capture order) — the order the region-division algorithm
// requires.
func (t *Trace) SortByOffset() {
	sort.SliceStable(t.Records, func(i, j int) bool {
		return t.Records[i].Offset < t.Records[j].Offset
	})
}

// SortByStart sorts records by their begin timestamp (capture order for
// merged multi-process traces).
func (t *Trace) SortByStart() {
	sort.SliceStable(t.Records, func(i, j int) bool {
		return t.Records[i].Start < t.Records[j].Start
	})
}

// Filter returns a new trace containing the records keep accepts.
func (t *Trace) Filter(keep func(Record) bool) *Trace {
	out := &Trace{}
	for _, r := range t.Records {
		if keep(r) {
			out.Records = append(out.Records, r)
		}
	}
	return out
}

// Reads returns only the read records.
func (t *Trace) Reads() *Trace {
	return t.Filter(func(r Record) bool { return r.Op == device.Read })
}

// Writes returns only the write records.
func (t *Trace) Writes() *Trace {
	return t.Filter(func(r Record) bool { return r.Op == device.Write })
}

// Summary aggregates workload features of a trace.
type Summary struct {
	Requests    int
	Reads       int
	Writes      int
	Bytes       int64
	BytesRead   int64
	BytesWrite  int64
	MinSize     int64
	MaxSize     int64
	AvgSize     float64
	MaxOffset   int64 // highest byte touched + 1 (logical extent)
	DistinctFDs int
}

// Summarize computes a Summary; the zero Summary is returned for an empty
// trace.
func (t *Trace) Summarize() Summary {
	var s Summary
	if len(t.Records) == 0 {
		return s
	}
	s.MinSize = t.Records[0].Size
	fds := make(map[int]bool)
	for _, r := range t.Records {
		s.Requests++
		s.Bytes += r.Size
		if r.Op == device.Read {
			s.Reads++
			s.BytesRead += r.Size
		} else {
			s.Writes++
			s.BytesWrite += r.Size
		}
		if r.Size < s.MinSize {
			s.MinSize = r.Size
		}
		if r.Size > s.MaxSize {
			s.MaxSize = r.Size
		}
		if end := r.Offset + r.Size; end > s.MaxOffset {
			s.MaxOffset = end
		}
		fds[r.FD] = true
	}
	s.AvgSize = float64(s.Bytes) / float64(s.Requests)
	s.DistinctFDs = len(fds)
	return s
}

// traceHeader is the first line of the text format; bumping the version
// invalidates old files explicitly instead of misparsing them.
const traceHeader = "#iosig-trace v1"

// Write encodes the trace in the line-oriented text format:
// pid rank fd op offset size start end (whitespace-separated, one record
// per line, '#' comments ignored).
func (t *Trace) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, traceHeader); err != nil {
		return err
	}
	for _, r := range t.Records {
		op := "r"
		if r.Op == device.Write {
			op = "w"
		}
		if _, err := fmt.Fprintf(bw, "%d %d %d %s %d %d %d %d\n",
			r.PID, r.Rank, r.FD, op, r.Offset, r.Size, int64(r.Start), int64(r.End)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read decodes a trace written by Write.
func Read(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	t := &Trace{}
	lineNo := 0
	sawHeader := false
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if line == traceHeader {
				sawHeader = true
			}
			continue
		}
		if !sawHeader {
			return nil, fmt.Errorf("trace: line %d: missing %q header", lineNo, traceHeader)
		}
		fields := strings.Fields(line)
		if len(fields) != 8 {
			return nil, fmt.Errorf("trace: line %d: want 8 fields, got %d", lineNo, len(fields))
		}
		var rec Record
		var err error
		if rec.PID, err = strconv.Atoi(fields[0]); err != nil {
			return nil, fmt.Errorf("trace: line %d: pid: %w", lineNo, err)
		}
		if rec.Rank, err = strconv.Atoi(fields[1]); err != nil {
			return nil, fmt.Errorf("trace: line %d: rank: %w", lineNo, err)
		}
		if rec.FD, err = strconv.Atoi(fields[2]); err != nil {
			return nil, fmt.Errorf("trace: line %d: fd: %w", lineNo, err)
		}
		switch fields[3] {
		case "r":
			rec.Op = device.Read
		case "w":
			rec.Op = device.Write
		default:
			return nil, fmt.Errorf("trace: line %d: unknown op %q", lineNo, fields[3])
		}
		if rec.Offset, err = strconv.ParseInt(fields[4], 10, 64); err != nil {
			return nil, fmt.Errorf("trace: line %d: offset: %w", lineNo, err)
		}
		if rec.Size, err = strconv.ParseInt(fields[5], 10, 64); err != nil {
			return nil, fmt.Errorf("trace: line %d: size: %w", lineNo, err)
		}
		var ts int64
		if ts, err = strconv.ParseInt(fields[6], 10, 64); err != nil {
			return nil, fmt.Errorf("trace: line %d: start: %w", lineNo, err)
		}
		rec.Start = sim.Time(ts)
		if ts, err = strconv.ParseInt(fields[7], 10, 64); err != nil {
			return nil, fmt.Errorf("trace: line %d: end: %w", lineNo, err)
		}
		rec.End = sim.Time(ts)
		if err := rec.Validate(); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", lineNo, err)
		}
		t.Records = append(t.Records, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !sawHeader && len(t.Records) == 0 && lineNo > 0 {
		return nil, fmt.Errorf("trace: missing %q header", traceHeader)
	}
	return t, nil
}
