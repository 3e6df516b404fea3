package harl

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// On-disk format for the multi-tier Region Stripe Table, mirroring the
// two-tier RST codec:
//
//	#harl-tiered-rst v1
//	#counts 6 1 1
//	<offset> <end> <stripe0> <stripe1> <stripe2>
//	...

// tieredHeader versions the format.
const tieredHeader = "#harl-tiered-rst v1"

// Write encodes the table as text.
func (t *TieredRST) Write(w io.Writer) error {
	if err := t.Validate(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, tieredHeader); err != nil {
		return err
	}
	fmt.Fprint(bw, "#counts")
	for _, c := range t.Counts {
		fmt.Fprintf(bw, " %d", c)
	}
	fmt.Fprintln(bw)
	for _, e := range t.Entries {
		fmt.Fprintf(bw, "%d %d", e.Offset, e.End)
		for _, s := range e.Stripes {
			fmt.Fprintf(bw, " %d", s)
		}
		fmt.Fprintln(bw)
	}
	return bw.Flush()
}

// ReadTieredRST decodes a table written by Write and validates it.
func ReadTieredRST(r io.Reader) (*TieredRST, error) {
	sc := bufio.NewScanner(r)
	t := &TieredRST{}
	lineNo := 0
	sawHeader := false
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			switch {
			case line == tieredHeader:
				sawHeader = true
			case strings.HasPrefix(line, "#counts"):
				if t.Counts != nil {
					return nil, fmt.Errorf("harl: tiered RST line %d: repeated #counts", lineNo)
				}
				t.Counts = []int{}
				for _, fld := range strings.Fields(line)[1:] {
					c, err := strconv.Atoi(fld)
					if err != nil {
						return nil, fmt.Errorf("harl: tiered RST line %d: counts: %w", lineNo, err)
					}
					t.Counts = append(t.Counts, c)
				}
			}
			continue
		}
		if !sawHeader {
			return nil, fmt.Errorf("harl: tiered RST line %d: missing %q header", lineNo, tieredHeader)
		}
		if len(t.Counts) == 0 {
			return nil, fmt.Errorf("harl: tiered RST line %d: data before #counts", lineNo)
		}
		fields := strings.Fields(line)
		if len(fields) != 2+len(t.Counts) {
			return nil, fmt.Errorf("harl: tiered RST line %d: want %d fields, got %d",
				lineNo, 2+len(t.Counts), len(fields))
		}
		var e TieredRSTEntry
		var err error
		if e.Offset, err = strconv.ParseInt(fields[0], 10, 64); err != nil {
			return nil, fmt.Errorf("harl: tiered RST line %d: offset: %w", lineNo, err)
		}
		if e.End, err = strconv.ParseInt(fields[1], 10, 64); err != nil {
			return nil, fmt.Errorf("harl: tiered RST line %d: end: %w", lineNo, err)
		}
		for _, fld := range fields[2:] {
			s, err := strconv.ParseInt(fld, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("harl: tiered RST line %d: stripe: %w", lineNo, err)
			}
			e.Stripes = append(e.Stripes, s)
		}
		t.Entries = append(t.Entries, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}
