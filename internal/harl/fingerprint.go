package harl

import (
	"fmt"

	"harl/internal/stats"
	"harl/internal/trace"
)

// PlanFingerprint freezes the workload assumptions a plan was optimized
// under, one record per (merged) RST entry. The online monitor compares
// live per-region statistics against these to decide whether the layout
// has gone stale: the RST itself only says *what* was chosen, the
// fingerprint says *why* — the request-size distribution, dispersion and
// read/write mix the grid search scored.
type PlanFingerprint struct {
	// Threshold is the CV threshold region division finally used.
	Threshold float64
	// Regions align one-to-one with the plan's RST entries.
	Regions []RegionFingerprint
}

// RegionFingerprint is one region's plan-time workload summary.
type RegionFingerprint struct {
	Offset int64 // region bounds, matching the RST entry
	End    int64
	H, S   int64 // the pair chosen for these assumptions

	Requests int     // traced requests in the region
	MeanSize float64 // mean request size (bytes)
	CV       float64 // population CV of request sizes
	WriteMix float64 // fraction of region bytes written
	// SizeDeciles are the nine interior deciles (q10..q90) of the
	// request-size distribution — the shape the drift detector compares
	// live windows against.
	SizeDeciles [9]float64
}

// Pair returns the region's planned stripe pair.
func (r RegionFingerprint) Pair() StripePair { return StripePair{H: r.H, S: r.S} }

// fingerprintRegion summarizes one merged region's request group.
func fingerprintRegion(e RSTEntry, records []trace.Record) RegionFingerprint {
	f := RegionFingerprint{
		Offset:   e.Offset,
		End:      e.End,
		H:        e.H,
		S:        e.S,
		Requests: len(records),
		WriteMix: ReadWriteMix(records),
	}
	if len(records) == 0 {
		return f
	}
	sizes := make([]float64, len(records))
	var w stats.Welford
	for i, r := range records {
		sizes[i] = float64(r.Size)
		w.Add(float64(r.Size))
	}
	f.MeanSize = w.Mean()
	f.CV = w.CV()
	for i := range f.SizeDeciles {
		f.SizeDeciles[i] = stats.Percentile(sizes, float64(i+1)*10)
	}
	return f
}

// Fingerprint builds the plan's fingerprint from the per-planned-region
// request groups (as produced by region.AssignRequests, aligned with the
// pre-merge planned regions). Groups of planned regions that merged into
// one RST entry are aggregated, so the result aligns with the merged RST.
func (p *Plan) fingerprint(groups [][]trace.Record) *PlanFingerprint {
	fp := &PlanFingerprint{Threshold: p.Threshold}
	merged := make([][]trace.Record, len(p.RST.Entries))
	for i, r := range p.Regions {
		ei := p.RST.Lookup(r.Offset)
		merged[ei] = append(merged[ei], groups[i]...)
	}
	for i, e := range p.RST.Entries {
		fp.Regions = append(fp.Regions, fingerprintRegion(e, merged[i]))
	}
	return fp
}

// Validate checks the fingerprint's regions are contiguous and sane,
// mirroring RST.Validate.
func (f *PlanFingerprint) Validate() error {
	for i, r := range f.Regions {
		if r.End <= r.Offset {
			return fmt.Errorf("harl: fingerprint region %d has empty range [%d,%d)", i, r.Offset, r.End)
		}
		if i == 0 {
			if r.Offset != 0 {
				return fmt.Errorf("harl: fingerprint must start at offset 0, got %d", r.Offset)
			}
		} else if r.Offset != f.Regions[i-1].End {
			return fmt.Errorf("harl: fingerprint region %d not contiguous: starts %d, previous ends %d",
				i, r.Offset, f.Regions[i-1].End)
		}
		if r.Requests < 0 || r.MeanSize < 0 || r.CV < 0 || r.WriteMix < 0 || r.WriteMix > 1 {
			return fmt.Errorf("harl: fingerprint region %d has invalid statistics", i)
		}
	}
	return nil
}
