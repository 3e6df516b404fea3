package layout

import "fmt"

// Closed-form critical parameters, paper Fig. 5.
//
// Section III-D derives the cost model's per-request quantities
// (m, n, s_m, s_n) analytically, case-split on where the request begins
// and ends (Fig. 4); Fig. 5 tabulates case (a), where both boundary
// sub-requests fall on HServers. This file carries that published
// derivation — with its boundary conditions worked out in full — and the
// tests cross-check it against the exact geometric computation
// (Geometry.Distribute) by exhaustive enumeration.
//
// Derivation sketch (case (a), request [o, o+r), round size R = M*h+N*s):
// with r_b/r_e the first/last byte's round indices, n_b/n_e their HServer
// columns, s_b the bytes from the first byte to its stripe's end and s_e
// the bytes from its stripe's start to the last byte, an HServer column c
// accumulates (Δr-1)·h from whole middle rounds plus a first-round term
// f(c) ∈ {0, s_b, h} and a last-round term g(c) ∈ {h, s_e, 0}; maximizing
// f+g over the touched columns gives s_m, and counting columns with
// positive coverage gives m. SServer columns are covered only by whole
// rounds in case (a), so s_n = Δr·s over all N SServers (or none when the
// request stays inside one round's H zone). The published table agrees
// with this everywhere except transcription slips in its fragment-size
// row (it mixes l_e into the l_b arm); the tests pin the corrected forms.

// CaseKind labels the four begin/end placements of Fig. 4.
type CaseKind int

// The four cases of Fig. 4.
const (
	CaseA CaseKind = iota // begins on HServer, ends on HServer
	CaseB                 // begins on HServer, ends on SServer
	CaseC                 // begins on SServer, ends on HServer
	CaseD                 // begins on SServer, ends on SServer
)

// String names the case as the paper letters it.
func (c CaseKind) String() string { return string(rune('a' + int(c))) }

// CaseOf classifies a request by where its first and last bytes land.
func (st Striping) CaseOf(off, size int64) CaseKind {
	if size <= 0 {
		panic(fmt.Sprintf("layout: CaseOf of empty request %d+%d", off, size))
	}
	beginSrv, _ := st.Locate(off)
	endSrv, _ := st.Locate(off + size - 1)
	beginsH := st.IsHServer(beginSrv)
	endsH := st.IsHServer(endSrv)
	switch {
	case beginsH && endsH:
		return CaseA
	case beginsH && !endsH:
		return CaseB
	case !beginsH && endsH:
		return CaseC
	default:
		return CaseD
	}
}

// DistributeCaseA computes (m, s_m) and (n, s_n) — the HServer and
// SServer TierLoads — via the closed-form analysis of the paper's Fig. 5.
// It is defined only for case (a) requests — both boundary sub-requests
// on HServers — with M, h > 0; other inputs panic. Geometry.Distribute
// covers every case in O(M+N); this function exists as the paper's
// published O(1) derivation and is verified equal to it.
func (st Striping) DistributeCaseA(off, size int64) [2]TierLoad {
	if st.M <= 0 || st.H <= 0 {
		panic(fmt.Sprintf("layout: DistributeCaseA needs M>0, h>0, got %v", st))
	}
	if st.CaseOf(off, size) != CaseA {
		panic(fmt.Sprintf("layout: request %d+%d is case %v, not (a)", off, size, st.CaseOf(off, size)))
	}
	round := st.RoundSize()
	end := off + size

	rb := off / round
	re := (end - 1) / round
	lb := off - rb*round
	le := (end - 1) - re*round
	nb := int(lb / st.H)
	ne := int(le / st.H)
	sb := st.H - lb%st.H // boundary fragment at the request's start
	se := le%st.H + 1    // boundary fragment at the request's end
	dr := re - rb        // Δr
	dc := ne - nb        // Δc

	var d [2]TierLoad
	h, s := &d[0], &d[1]
	if dr == 0 {
		// The request lives inside one round's H zone: no SServer data.
		switch {
		case dc == 0:
			h.Touched, h.Max = 1, size
		case dc == 1:
			h.Touched, h.Max = 2, max(sb, se)
		default:
			h.Touched, h.Max = dc+1, st.H
		}
		return d
	}

	// dr >= 1: every SServer serves exactly Δr full stripes.
	s.Touched, s.Max = st.N, dr*st.S

	// HServer columns: (Δr-1)·h from middle rounds plus the best f+g.
	base := (dr - 1) * st.H
	var peak int64
	switch {
	case dc == 0:
		// The begin and end columns coincide: it takes s_b + s_e; any
		// other column (when one exists) takes h from one partial round.
		peak = sb + se
		if st.M >= 2 {
			peak = max(peak, st.H)
		}
		// Every column is reached by a middle round or, with one wrap,
		// by either the head ([lb, R)) or the tail ([0, le]) partial.
		h.Touched = st.M
	case dc > 0:
		// Begin column takes s_b + h (head fragment + tail round),
		// end column h + s_e, and columns strictly between take 2h.
		peak = max(sb, se) + st.H
		if dc > 1 {
			peak = 2 * st.H
		}
		h.Touched = st.M
	default: // dc < 0
		// The tail partial reaches columns < n_e, the head partial
		// columns > n_b; columns in the gap (n_e, n_b) are served only
		// by whole middle rounds, absent when Δr == 1.
		peak = max(sb, se)
		if ne > 0 || nb < st.M-1 {
			peak = max(peak, st.H)
		}
		if dr == 1 {
			h.Touched = st.M + 1 + dc // the paper's (M + 1 + Δc) row
		} else {
			h.Touched = st.M
		}
	}
	h.Max = base + peak
	return d
}
