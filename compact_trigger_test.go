package iuad

import (
	"testing"

	"iuad/internal/bib"
	"iuad/internal/wal"
)

// TestCompactionTrigger is the table of the trigger decision a commit
// takes under the write lock: size-tiered at 1/8 of the base by
// default, a batch count when CompactEvery asks for one, never when it
// is negative.
func TestCompactionTrigger(t *testing.T) {
	j, err := wal.Open(t.TempDir(), wal.Config{Fsync: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if _, err := j.Recover(0, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Append(1, []bib.Paper{{Title: "trigger", Authors: []string{"A Trigger"}}}); err != nil {
		t.Fatal(err)
	}
	type row struct {
		name      string
		every     int
		baseBytes int64
		want      bool
	}
	check := func(rows ...row) {
		t.Helper()
		batches, journal := j.SinceBase()
		for _, tc := range rows {
			s := &Service{journal: j, compactEvery: tc.every}
			s.baseBytes.Store(tc.baseBytes)
			if got := s.compactionDue(); got != tc.want {
				t.Errorf("%s: compactionDue() = %v, want %v (journal %d batches, %d bytes; base %d bytes)",
					tc.name, got, tc.want, batches, journal, tc.baseBytes)
			}
		}
	}
	_, journal := j.SinceBase()
	if journal <= 0 {
		t.Fatalf("journal holds %d bytes after an append", journal)
	}
	check(
		row{"fresh directory: no base counts as 0 bytes", 0, 0, true},
		row{"journal at exactly 1/8 of the base", 0, 8 * journal, true},
		row{"journal past 1/8", 0, 5 * journal, true},
		row{"one byte of base short of 1/8", 0, 8*journal + 1, false},
		row{"bench crash set-up: 12x128 papers on a 10,000-paper base, 5.6%", 0, journal * 1000 / 56, false},
		row{"bench smoke scale, 4.0%", 0, 25 * journal, false},
		row{"CompactEvery 2: first batch", 2, 0, false},
		row{"CompactEvery -1 never fires", -1, 0, false},
	)
	if _, err := j.Append(2, []bib.Paper{{Title: "trigger again", Authors: []string{"A Trigger"}}}); err != nil {
		t.Fatal(err)
	}
	check(
		row{"CompactEvery 2: second batch, whatever the sizes", 2, 1 << 40, true},
		row{"size-tiered ignores the batch count", 0, 1 << 40, false},
		row{"CompactEvery -1 never fires", -1, 0, false},
	)
}
