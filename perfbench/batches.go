package main

import (
	"fmt"
	"time"

	"mpa"
)

// splitMonth splits one month's update into at most n day-range batches,
// in time order: batch k holds the snapshots and tickets stamped in
// [start+k·D/n days, start+(k+1)·D/n days) of the month's D days, each
// in the update's own order. Applied in order the batches are valid
// ingests: the first extends the study window and the rest grow the new
// month, and per-device snapshot times never go backwards. Empty day
// ranges are dropped, since an empty update is rejected.
func splitMonth(u *mpa.IngestUpdate, n int) ([]*mpa.IngestUpdate, error) {
	m, err := u.ParseMonth()
	if err != nil {
		return nil, err
	}
	if n < 1 {
		return nil, fmt.Errorf("splitMonth: need at least one batch, got %d", n)
	}
	start := m.Start()
	days := int(m.End().Sub(start).Hours()/24 + 0.5)
	bounds := make([]time.Time, n+1)
	for k := 0; k < n; k++ {
		bounds[k] = start.AddDate(0, 0, k*days/n)
	}
	bounds[n] = m.End()
	batchOf := func(t time.Time) int {
		for k := n - 1; k > 0; k-- {
			if !t.Before(bounds[k]) {
				return k
			}
		}
		return 0
	}
	out := make([]*mpa.IngestUpdate, n)
	for k := range out {
		out[k] = &mpa.IngestUpdate{Month: u.Month}
	}
	for _, s := range u.Snapshots {
		b := out[batchOf(s.Time)]
		b.Snapshots = append(b.Snapshots, s)
	}
	for _, t := range u.Tickets {
		b := out[batchOf(t.Opened)]
		b.Tickets = append(b.Tickets, t)
	}
	kept := out[:0]
	for _, b := range out {
		if len(b.Snapshots)+len(b.Tickets) > 0 {
			kept = append(kept, b)
		}
	}
	return kept, nil
}
