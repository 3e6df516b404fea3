package layout

import "fmt"

// Tiered generalizes Striping to any number of server performance
// classes — the paper's first future-work item ("extend our cost model
// to accommodate more than two server performance profiles"). Tier i
// contributes Counts[i] servers, each striped with Stripes[i] bytes per
// round; servers are numbered tier by tier in declaration order, and a
// zero stripe size skips the tier exactly as H == 0 or S == 0 do in the
// two-tier layout.
type Tiered struct {
	Counts  []int
	Stripes []int64
}

// TieredOf converts a two-tier Striping to the general form.
func TieredOf(st Striping) Tiered {
	return Tiered{Counts: []int{st.M, st.N}, Stripes: []int64{st.H, st.S}}
}

// Validate reports whether the configuration can hold data.
func (t Tiered) Validate() error {
	if len(t.Counts) == 0 || len(t.Counts) != len(t.Stripes) {
		return fmt.Errorf("layout: tiered config needs matching counts/stripes, got %d/%d",
			len(t.Counts), len(t.Stripes))
	}
	total := 0
	var bytes int64
	for i, c := range t.Counts {
		if c < 0 {
			return fmt.Errorf("layout: tier %d has negative count %d", i, c)
		}
		if t.Stripes[i] < 0 {
			return fmt.Errorf("layout: tier %d has negative stripe %d", i, t.Stripes[i])
		}
		total += c
		bytes += int64(c) * t.Stripes[i]
	}
	if total == 0 {
		return fmt.Errorf("layout: tiered config has no servers")
	}
	if bytes == 0 {
		// Formatting t.String() rather than t keeps t's slices from
		// escaping, so the cost model can lift a request to tiers on
		// the stack.
		return fmt.Errorf("layout: tiered config %s stores no data", t.String())
	}
	return nil
}

// Tiers returns the number of tiers.
func (t Tiered) Tiers() int { return len(t.Counts) }

// Servers returns the total server count.
func (t Tiered) Servers() int {
	total := 0
	for _, c := range t.Counts {
		total += c
	}
	return total
}

// RoundSize returns the bytes per striping round.
func (t Tiered) RoundSize() int64 {
	var bytes int64
	for i, c := range t.Counts {
		bytes += int64(c) * t.Stripes[i]
	}
	return bytes
}

// TierOf returns the tier owning a global server index.
func (t Tiered) TierOf(server int) int {
	if server < 0 {
		panic(fmt.Sprintf("layout: negative server %d", server))
	}
	for i, c := range t.Counts {
		if server < c {
			return i
		}
		server -= c
	}
	panic(fmt.Sprintf("layout: server out of range for %v", t))
}

// StripeOf returns the stripe size of a global server index.
func (t Tiered) StripeOf(server int) int64 {
	return t.Stripes[t.TierOf(server)]
}

// serverBase returns the global index of a tier's first server.
func (t Tiered) serverBase(tier int) int {
	base := 0
	for i := 0; i < tier; i++ {
		base += t.Counts[i]
	}
	return base
}

// Locate maps a logical offset to (global server index, server-local
// offset), like Striping.Locate.
func (t Tiered) Locate(off int64) (server int, local int64) {
	if off < 0 {
		panic(fmt.Sprintf("layout: negative offset %d", off))
	}
	round := t.RoundSize()
	if round <= 0 {
		panic(fmt.Sprintf("layout: %v stores no data", t))
	}
	r := off / round
	l := off % round
	for i, c := range t.Counts {
		zone := int64(c) * t.Stripes[i]
		if l < zone {
			in := l % t.Stripes[i]
			server = t.serverBase(i) + int(l/t.Stripes[i])
			return server, r*t.Stripes[i] + in
		}
		l -= zone
	}
	panic("layout: unreachable: offset beyond round")
}

// Map splits [off, off+size) into per-server sub-requests, one contiguous
// range per touched server, ordered by server index.
func (t Tiered) Map(off, size int64) []SubRequest { return mapRange(t, off, size) }

// String renders the configuration, e.g. "[6x16K 1x64K 1x256K]".
func (t Tiered) String() string {
	s := "["
	for i, c := range t.Counts {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%dx%s", c, kb(t.Stripes[i]))
	}
	return s + "]"
}
