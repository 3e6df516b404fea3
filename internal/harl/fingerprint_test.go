package harl

import (
	"math"
	"testing"

	"harl/internal/device"
	"harl/internal/stats"
	"harl/internal/trace"
)

// fpTestRecords builds n same-size requests covering [base, base+n*size).
func fpTestRecords(base, size int64, n int, op device.Op) []trace.Record {
	recs := make([]trace.Record, n)
	for i := range recs {
		recs[i] = trace.Record{
			PID: 1000, Rank: 0, FD: 3, Op: op,
			Offset: base + int64(i)*size, Size: size,
			Start: 0, End: 1,
		}
	}
	return recs
}

func TestFingerprintAlignsWithMergedRST(t *testing.T) {
	p := modelParams()
	tr := &trace.Trace{}
	// Two workload halves with very different request sizes, so division
	// splits them and the optimizer picks different pairs.
	tr.Records = append(tr.Records, fpTestRecords(0, 64<<10, 256, device.Write)...)
	tr.Records = append(tr.Records, fpTestRecords(16<<20, 2<<20, 64, device.Write)...)
	plan, err := Planner{Params: p, ChunkSize: 4 << 20}.Analyze(tr)
	if err != nil {
		t.Fatal(err)
	}
	fp := plan.Fingerprint
	if fp == nil {
		t.Fatal("plan has no fingerprint")
	}
	if len(fp.Regions) != len(plan.RST.Entries) {
		t.Fatalf("fingerprint has %d regions, RST has %d entries",
			len(fp.Regions), len(plan.RST.Entries))
	}
	total := 0
	for i, r := range fp.Regions {
		e := plan.RST.Entries[i]
		if r.Offset != e.Offset || r.End != e.End || r.H != e.H || r.S != e.S {
			t.Errorf("region %d fingerprint %+v misaligned with RST entry %+v", i, r, e)
		}
		if r.Requests == 0 {
			t.Errorf("region %d fingerprint has no requests", i)
		}
		if r.MeanSize <= 0 {
			t.Errorf("region %d mean size %v", i, r.MeanSize)
		}
		if r.WriteMix != 1 {
			t.Errorf("region %d write mix %v, want 1 (write-only trace)", i, r.WriteMix)
		}
		if r.SizeDeciles[0] <= 0 || r.SizeDeciles[8] < r.SizeDeciles[0] {
			t.Errorf("region %d deciles %v not monotone positive", i, r.SizeDeciles)
		}
		total += r.Requests
	}
	if total != tr.Len() {
		t.Errorf("fingerprint accounts for %d requests, trace has %d", total, tr.Len())
	}
	if err := fp.Validate(); err != nil {
		t.Errorf("fingerprint invalid: %v", err)
	}

	// Each region's summary must equal the statistics recomputed directly
	// from the requests its bounds contain (last region open-ended).
	for i, r := range fp.Regions {
		var sizes []float64
		for _, rec := range tr.Records {
			if rec.Offset >= r.Offset && (rec.Offset < r.End || i == len(fp.Regions)-1) {
				sizes = append(sizes, float64(rec.Size))
			}
		}
		if len(sizes) != r.Requests {
			t.Errorf("region %d: fingerprint says %d requests, bounds contain %d", i, r.Requests, len(sizes))
			continue
		}
		if want := stats.Mean(sizes); math.Abs(r.MeanSize-want) > 1e-6*want {
			t.Errorf("region %d mean %v, want %v", i, r.MeanSize, want)
		}
		if want := stats.CV(sizes); math.Abs(r.CV-want) > 1e-9+1e-6*want {
			t.Errorf("region %d CV %v, want %v", i, r.CV, want)
		}
		if want := stats.Percentile(sizes, 50); math.Abs(r.SizeDeciles[4]-want) > 1e-6*want {
			t.Errorf("region %d median %v, want %v", i, r.SizeDeciles[4], want)
		}
	}
}

// TestFingerprintValidateRejects covers the structural checks the
// monitor relies on when it is handed a fingerprint.
func TestFingerprintValidateRejects(t *testing.T) {
	ok := RegionFingerprint{Offset: 0, End: 10, Requests: 1, MeanSize: 1, WriteMix: 1}
	for name, regions := range map[string][]RegionFingerprint{
		"empty range": {{Offset: 0, End: 0}},
		"late start":  {{Offset: 5, End: 10}},
		"gap":         {ok, {Offset: 20, End: 30}},
		"bad mix":     {{Offset: 0, End: 10, WriteMix: 1.5}},
		"negative cv": {{Offset: 0, End: 10, CV: -1}},
	} {
		if (&PlanFingerprint{Regions: regions}).Validate() == nil {
			t.Errorf("%s: Validate accepted %+v", name, regions)
		}
	}
	if err := (&PlanFingerprint{Regions: []RegionFingerprint{ok, {Offset: 10, End: 30}}}).Validate(); err != nil {
		t.Errorf("contiguous fingerprint rejected: %v", err)
	}
}
