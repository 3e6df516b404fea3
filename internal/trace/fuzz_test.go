package trace

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// FuzzTraceRead checks Read never panics and that every trace it
// accepts survives Write then Read unchanged.
func FuzzTraceRead(f *testing.F) {
	f.Add("#iosig-trace v1\n1 0 3 r 0 100 0 5\n2 1 3 w 4096 65536 5 9\n")
	f.Add("# note\n\n#iosig-trace v1\n-1 -2 -3 w 0 1 -9 -9\n")
	f.Add("#iosig-trace v1\n")
	// The input Read once accepted: Offset+Size overflows int64.
	f.Add("#iosig-trace v1\n1 0 3 w 9223372036854775807 4096 0 1\n1 0 3 w 0 4096 1 2\n")
	f.Fuzz(func(t *testing.T, in string) {
		tr, err := Read(strings.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			t.Fatalf("accepted trace fails to write: %v", err)
		}
		back, err := Read(&buf)
		if err != nil {
			t.Fatalf("written trace %q fails to read: %v", buf.String(), err)
		}
		if !reflect.DeepEqual(back.Records, tr.Records) {
			t.Fatalf("round trip:\n got %+v\nwant %+v", back.Records, tr.Records)
		}
	})
}
