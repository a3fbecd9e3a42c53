package main

import (
	"bytes"
	"reflect"
	"sort"
	"testing"

	"mpa"
	"mpa/internal/ingest"
	"mpa/internal/osp"
)

// smallConfig is a quick organization for the splitter tests.
func smallConfig(seed uint64) mpa.Config {
	cfg := mpa.DefaultConfig(seed)
	cfg.Networks = 10
	start, _ := mpa.StudyWindow()
	cfg.Start = start
	cfg.End = start.Add(3)
	return cfg
}

func snapshotKey(s ingest.SnapshotEntry) string {
	return s.Device + "|" + s.Time.String() + "|" + s.Text
}

func ticketKey(t ingest.TicketEntry) string {
	return t.Network + "|" + t.Opened.String() + "|" + t.Symptom
}

// Concatenated, the batches hold exactly the month ingest.SliceMonth
// cuts from a generator run over the extended window; each batch keeps
// the month's order, and the batches follow each other in time.
func TestSplitMonthConcatenatesToSliceMonth(t *testing.T) {
	cfg := smallConfig(7)
	p := ospParams(cfg)
	p.End = p.End.Next()
	o := osp.Generate(p)
	month := ingest.SliceMonth(o.Archive, o.Tickets, p.End)
	feed, err := mpa.NextMonths(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(feed[0], month) {
		t.Fatal("mpa.NextMonths differs from ingest.SliceMonth over the extended window")
	}
	for _, n := range []int{1, 3, 6, 31} {
		batches, err := splitMonth(month, n)
		if err != nil {
			t.Fatal(err)
		}
		if len(batches) == 0 || len(batches) > n {
			t.Fatalf("n=%d: %d batches", n, len(batches))
		}
		var snaps, wantSnaps, tix, wantTix []string
		for _, s := range month.Snapshots {
			wantSnaps = append(wantSnaps, snapshotKey(s))
		}
		for _, tk := range month.Tickets {
			wantTix = append(wantTix, ticketKey(tk))
		}
		pos := map[string]int{}
		for i, k := range wantSnaps {
			pos[k] = i
		}
		for bi, b := range batches {
			if b.Month != month.Month {
				t.Fatalf("batch %d month %s", bi, b.Month)
			}
			if len(b.Snapshots)+len(b.Tickets) == 0 {
				t.Fatalf("n=%d: empty batch %d", n, bi)
			}
			for i, s := range b.Snapshots {
				snaps = append(snaps, snapshotKey(s))
				if i > 0 && pos[snapshotKey(s)] < pos[snapshotKey(b.Snapshots[i-1])] {
					t.Fatalf("n=%d batch %d: snapshots out of the month's order", n, bi)
				}
				if bi > 0 {
					prev := batches[bi-1]
					for _, ps := range prev.Snapshots {
						if s.Time.Before(ps.Time) {
							t.Fatalf("n=%d: batch %d has a snapshot before one in batch %d", n, bi, bi-1)
						}
					}
				}
			}
			for _, tk := range b.Tickets {
				tix = append(tix, ticketKey(tk))
			}
		}
		for _, l := range [][]string{snaps, wantSnaps, tix, wantTix} {
			sort.Strings(l)
		}
		if !reflect.DeepEqual(snaps, wantSnaps) || !reflect.DeepEqual(tix, wantTix) {
			t.Fatalf("n=%d: concatenated batches differ from SliceMonth (%d/%d snapshots, %d/%d tickets)",
				n, len(snaps), len(wantSnaps), len(tix), len(wantTix))
		}
	}
}

// Every batch compiles and applies in sequence — the first of each month
// extends the window, the rest grow it — and the spliced ranking equals
// a cold build over the extended window, as the monthly check demands.
func TestBatchesCompileInSequence(t *testing.T) {
	cfg := smallConfig(11)
	f, err := mpa.NewSynthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bodies, err := ingestBodies(cfg, 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	for mi, month := range bodies {
		if len(month) < 2 {
			t.Fatalf("month %d split into %d batches", mi, len(month))
		}
		for bi, body := range month {
			u, err := ingest.Decode(bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			res, err := f.Ingest(u)
			if err != nil {
				t.Fatalf("month %d batch %d: %v", mi, bi, err)
			}
			if res.NewMonth != (bi == 0) {
				t.Fatalf("month %d batch %d: new_month=%v", mi, bi, res.NewMonth)
			}
		}
	}
	ext := cfg
	ext.End = cfg.End.Add(2)
	want, err := coldRankBody(ext)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rankBody(f.RankPractices())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("ranking after the batches differs from a cold build over the extended window")
	}
}
