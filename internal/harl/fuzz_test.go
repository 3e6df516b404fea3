package harl

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// FuzzReadRST checks the RST reader never panics and that every table
// it accepts survives Write then Read unchanged, with R 0 and 1 equal
// (both mean unreplicated, and a v1 table drops R).
func FuzzReadRST(f *testing.F) {
	f.Add("#harl-rst v1\n0 100 4096 8192\n100 300 0 65536\n")
	f.Add("#harl-rst v2\n0 100 4096 8192 2\n100 200 4096 0 1\n")
	f.Add("#harl-rst v2\n0 100 4096 8192 1\n")
	f.Add("# note\n\n#harl-rst v1\n0 10 1 1\n")
	f.Fuzz(func(t *testing.T, in string) {
		rst, err := ReadRST(strings.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := rst.Write(&buf); err != nil {
			t.Fatalf("accepted table fails to write: %v", err)
		}
		back, err := ReadRST(&buf)
		if err != nil {
			t.Fatalf("written table %q fails to read: %v", buf.String(), err)
		}
		if len(back.Entries) != len(rst.Entries) {
			t.Fatalf("round trip: %d entries, want %d", len(back.Entries), len(rst.Entries))
		}
		for i, e := range rst.Entries {
			e.R = effR(e.R)
			g := back.Entries[i]
			g.R = effR(g.R)
			if g != e {
				t.Fatalf("round trip entry %d: %+v, want %+v", i, back.Entries[i], rst.Entries[i])
			}
		}
	})
}

// FuzzReadTieredRST checks the tiered RST reader never panics and that
// every table it accepts survives Write then Read unchanged.
func FuzzReadTieredRST(f *testing.F) {
	f.Add("#harl-tiered-rst v1\n#counts 6 1 1\n0 100 16384 32768 65536\n100 200 0 65536 131072\n")
	f.Add("#harl-tiered-rst v1\n\n# note\n#counts 2 1\n0 100 4096 8192\n")
	// Inputs the reader once accepted.
	f.Add("#harl-tiered-rst v1\n#counts -1 2\n0 100 4096 8192\n")
	f.Add("#harl-tiered-rst v1\n#counts 1\n#counts 2\n0 100 4096 8192\n")
	f.Fuzz(func(t *testing.T, in string) {
		rst, err := ReadTieredRST(strings.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := rst.Write(&buf); err != nil {
			t.Fatalf("accepted table fails to write: %v", err)
		}
		back, err := ReadTieredRST(&buf)
		if err != nil {
			t.Fatalf("written table %q fails to read: %v", buf.String(), err)
		}
		if !reflect.DeepEqual(back, rst) {
			t.Fatalf("round trip:\n got %+v\nwant %+v", back, rst)
		}
	})
}
