package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// exactCounts are per-layer counts that must repeat exactly between two
// runs of one commit; a difference is flagged, whatever its size.
var exactCounts = map[string]bool{
	"core.torture_collect_beats": true,
	"core.torture_dgc_msgs":      true,
	"core.torture_dgc_bytes":     true,
	"core.ring_collect_beats_h8": true,
	"core.msg_bytes":             true,
	"wire.encoded_bytes_64":      true,
}

func readDoc(path string) (doc, error) {
	var d doc
	buf, err := os.ReadFile(path)
	if err != nil {
		return d, err
	}
	if err := json.Unmarshal(buf, &d); err != nil {
		return d, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

// worsening is how far b is worse than a, as a share of a.
func worsening(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// roundsWiderThan reports whether the rounds behind s cover a range wider
// than bound: the value is then not resolved to within the bound.
func roundsWiderThan(s spread, bound float64) bool {
	return s.Value != 0 && (s.Max-s.Min)/s.Value > bound
}

// compareFiles prints, per workload and metric, both values, how far the
// second is worse and the bound. It returns 1 when an end-to-end metric
// of the second file is worse than the first by more than its bound, or
// a workload's failed share rose.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, errA := readDoc(pathA)
	b, errB := readDoc(pathB)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	return compareDocs(a, b, stdout)
}

func compareDocs(a, b doc, out io.Writer) int {
	status := 0
	byName := make(map[string]report)
	for _, r := range b.Reports {
		byName[r.Workload] = r
	}
	for _, ra := range a.Reports {
		rb, ok := byName[ra.Workload]
		if !ok {
			fmt.Fprintf(out, "%s: only in the first file\n", ra.Workload)
			continue
		}
		fmt.Fprintf(out, "%s: failed %d of %d, then %d of %d\n", ra.Workload, ra.Failed, ra.Attempted, rb.Failed, rb.Attempted)
		if float64(rb.Failed)*float64(ra.Attempted) > float64(ra.Failed)*float64(rb.Attempted) {
			fmt.Fprintf(out, "  FAILED SHARE ROSE\n")
			status = 1
		}
		for _, d := range endToEnd {
			sa, okA := ra.EndToEnd[d.name]
			sb, okB := rb.EndToEnd[d.name]
			if !okA || !okB {
				continue
			}
			worse := worsening(d, sa.Value, sb.Value)
			verdict := "within bound"
			switch {
			case worse > d.bound:
				verdict = "WORSE BY MORE THAN THE BOUND"
				status = 1
			case roundsWiderThan(sa, d.bound) || roundsWiderThan(sb, d.bound):
				verdict = "unresolved: the rounds' own range is wider than the bound"
			}
			fmt.Fprintf(out, "  %-26s %12s -> %12s %-6s worse by %+6.1f%% (bound %2.0f%%)  %s\n",
				d.name, formatValue(sa.Value), formatValue(sb.Value), d.unit, 100*worse, 100*d.bound, verdict)
		}
		for _, d := range perLayer {
			sa, okA := ra.PerLayer[d.name]
			sb, okB := rb.PerLayer[d.name]
			if !okA || !okB {
				continue
			}
			note := ""
			if exactCounts[d.name] && sa.Value != sb.Value {
				note = "  EXACT COUNT DIFFERS"
			}
			fmt.Fprintf(out, "  %-34s %12s -> %12s %-6s worse by %+6.1f%%%s\n",
				d.name, formatValue(sa.Value), formatValue(sb.Value), d.unit, 100*worsening(d, sa.Value, sb.Value), note)
		}
	}
	return status
}
