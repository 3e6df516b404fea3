package experiments

import "testing"

// TestScaleHugeScale asserts the acceptance floor: at least 1000
// servers and 1M processed events, a deterministic virtual end time,
// and all traffic acknowledged (RunScaleHuge fails internally on any
// I/O error). The 10 s wall bound is enforced by the benchguard
// snapshot, not here — this test also runs under -race, which slows
// the event loop by an order of magnitude.
func TestScaleHugeScale(t *testing.T) {
	if testing.Short() {
		t.Skip("ScaleHuge is a multi-second run")
	}
	res, err := RunScaleHuge(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Servers < 1000 {
		t.Errorf("servers = %d, want >= 1000", res.Servers)
	}
	if res.Events < 1_000_000 {
		t.Errorf("events = %d, want >= 1M", res.Events)
	}
	if res.Requests != scaleHugeClients*scaleHugeWrites {
		t.Errorf("requests = %d, want %d", res.Requests, scaleHugeClients*scaleHugeWrites)
	}
	if res.EndSeconds <= 0 {
		t.Errorf("virtual end %v not positive", res.EndSeconds)
	}
	// Determinism: a replay reproduces the virtual facts exactly.
	again, err := RunScaleHuge(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	if again.Events != res.Events || again.EndSeconds != res.EndSeconds {
		t.Errorf("replay diverged: events %d vs %d, end %v vs %v",
			again.Events, res.Events, again.EndSeconds, res.EndSeconds)
	}
}
