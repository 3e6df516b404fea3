// Package layout implements the striping geometry of a hybrid parallel
// file system: how a logical byte range of a file maps onto the HDD
// servers (HServers) and SSD servers (SServers) that store it.
//
// The traditional scheme stripes a file round-robin with one fixed stripe
// size. The schemes this repository studies generalize that to a
// two-dimensional configuration (paper Fig. 2): within each striping round
// the first M stripes of size H land on the M HServers and the next N
// stripes of size S land on the N SServers. Fixed-size striping is the
// special case H == S; H == 0 or S == 0 places data on one server class
// only (the paper's extreme configurations, e.g. the {0 KB, 64 KB} optimum
// of Fig. 9).
//
// This package is shared by the simulated PFS (which needs exact
// sub-request lists, from Map and Fragments) and by HARL's analytical cost
// model (which needs the per-tier sub-request maxima and server counts of
// Section III-D, from Geometry).
package layout

import "fmt"

// Mapper is the placement contract a file layout provides to the file
// system: where every logical byte lives. Striping (two-tier) and Tiered
// (k-tier) both implement it.
type Mapper interface {
	// Validate reports whether the layout can hold data.
	Validate() error
	// Servers returns the number of data servers the layout spans.
	Servers() int
	// Locate maps a logical offset to (server index, server-local offset).
	Locate(off int64) (server int, local int64)
	// StripeOf returns the stripe size used by a server index.
	StripeOf(server int) int64
	// Map splits a logical range into per-server sub-requests.
	Map(off, size int64) []SubRequest
}

// Striping is one two-dimensional stripe configuration over a hybrid
// server group: M HServers with stripe size H followed by N SServers with
// stripe size S, repeated round-robin. Servers are numbered 0..M-1
// (HServers) then M..M+N-1 (SServers).
type Striping struct {
	M int   // number of HServers
	N int   // number of SServers
	H int64 // stripe size on each HServer, bytes (0 = skip HServers)
	S int64 // stripe size on each SServer, bytes (0 = skip SServers)
}

// Fixed returns the traditional one-dimensional layout: the same stripe
// size on every server.
func Fixed(m, n int, stripe int64) Striping {
	return Striping{M: m, N: n, H: stripe, S: stripe}
}

// Validate reports whether the configuration can hold data.
func (st Striping) Validate() error {
	switch {
	case st.M < 0 || st.N < 0 || st.M+st.N == 0:
		return fmt.Errorf("layout: invalid server counts M=%d N=%d", st.M, st.N)
	case st.H < 0 || st.S < 0:
		return fmt.Errorf("layout: negative stripe size H=%d S=%d", st.H, st.S)
	case st.HBytes()+st.SBytes() == 0:
		return fmt.Errorf("layout: striping %v stores no data", st)
	}
	return nil
}

// HBytes returns the bytes per round stored on HServers (M*H).
func (st Striping) HBytes() int64 { return int64(st.M) * st.H }

// SBytes returns the bytes per round stored on SServers (N*S).
func (st Striping) SBytes() int64 { return int64(st.N) * st.S }

// RoundSize returns the bytes in one full striping round,
// S = M*H + N*S in the paper's notation.
func (st Striping) RoundSize() int64 { return st.HBytes() + st.SBytes() }

// Servers returns the total server count M+N.
func (st Striping) Servers() int { return st.M + st.N }

// IsHServer reports whether the given server index is an HServer.
func (st Striping) IsHServer(server int) bool { return server < st.M }

// String renders the configuration like the paper's figures, e.g.
// "64K-64K x(6H+2S)".
func (st Striping) String() string {
	return fmt.Sprintf("%s-%s x(%dH+%dS)", kb(st.H), kb(st.S), st.M, st.N)
}

func kb(b int64) string {
	if b%1024 == 0 {
		return fmt.Sprintf("%dK", b/1024)
	}
	return fmt.Sprintf("%dB", b)
}

// Locate maps a logical file offset to (server, local offset). The local
// offset is the position within the server's backing object, which stores
// that server's stripes contiguously — exactly how OrangeFS datafiles
// work. Panics if the striping stores no data or off is negative.
func (st Striping) Locate(off int64) (server int, local int64) {
	if off < 0 {
		panic(fmt.Sprintf("layout: negative offset %d", off))
	}
	round := st.RoundSize()
	if round <= 0 {
		panic(fmt.Sprintf("layout: %v stores no data", st))
	}
	r := off / round // rb in the paper: index of the striping round
	l := off % round // lb: position within the round
	if l < st.HBytes() {
		server = int(l / st.H)
		in := l % st.H
		return server, r*st.H + in
	}
	l -= st.HBytes()
	server = st.M + int(l/st.S)
	in := l % st.S
	return server, r*st.S + in
}

// StripeOf returns the stripe size used by the given server index.
func (st Striping) StripeOf(server int) int64 {
	if server < 0 || server >= st.Servers() {
		panic(fmt.Sprintf("layout: server %d out of range [0,%d)", server, st.Servers()))
	}
	if st.IsHServer(server) {
		return st.H
	}
	return st.S
}

// SubRequest is the portion of a file request served by one server: a
// contiguous range of the server's backing object.
type SubRequest struct {
	Server int   // global server index (0..M+N-1)
	Local  int64 // offset within the server's backing object
	Size   int64 // bytes
}

// Map splits the logical byte range [off, off+size) into per-server
// sub-requests. Because a contiguous logical range touches a contiguous
// run of each server's stripes, each touched server receives exactly one
// contiguous sub-request; results are ordered by server index.
func (st Striping) Map(off, size int64) []SubRequest { return mapRange(st, off, size) }

// Fragments calls fn for each stripe fragment of the logical range
// [off, off+size), in logical order: the fragment's logical offset pos,
// the server holding it, its offset local within that server's object,
// and its length n. Each step consumes to the end of the current stripe
// or of the range, whichever is first, so the walk runs
// O(size / min stripe + servers) times. It is the one enumeration of a
// layout's fragments: Map folds it into sub-requests and the file system
// slices payloads with it.
func Fragments[M Mapper](m M, off, size int64, fn func(pos int64, server int, local, n int64)) {
	for pos, end := off, off+size; pos < end; {
		server, local := m.Locate(pos)
		stripe := m.StripeOf(server)
		n := stripe - local%stripe
		if rem := end - pos; n > rem {
			n = rem
		}
		fn(pos, server, local, n)
		pos += n
	}
}

// mapRange is Map for any layout: the fragment walk folded into one
// sub-request per touched server.
func mapRange[M Mapper](m M, off, size int64) []SubRequest {
	if off < 0 || size < 0 {
		panic(fmt.Sprintf("layout: invalid range %d+%d", off, size))
	}
	if size == 0 {
		return nil
	}
	// extents[i] tracks the first and last local byte touched on server
	// i; contiguity of the stripe run guarantees everything in between is
	// covered. A fragment is never empty, so last == 0 means untouched.
	extents := make([]struct{ first, last int64 }, m.Servers())
	Fragments(m, off, size, func(_ int64, server int, local, n int64) {
		e := &extents[server]
		if e.last == 0 {
			e.first = local
		}
		e.last = local + n
	})
	var subs []SubRequest
	for i, e := range extents {
		if e.last > 0 {
			subs = append(subs, SubRequest{Server: i, Local: e.first, Size: e.last - e.first})
		}
	}
	return subs
}
