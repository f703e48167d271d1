package store

// Background integrity scrubbing and warm-start key enumeration. Entries
// are CRC-validated on every read, but a store can hold results that go
// unread for weeks; silent media corruption in those files would only
// surface at the worst possible moment — a cache hit on a bit-flipped
// entry, caught at read time and paid for with a re-simulation during
// interactive traffic. The scrubber moves that discovery to idle time: it
// walks every entry and checkpoint blob, re-runs the same header+CRC
// validation the read path uses — and, for entries, the same decode — and
// quarantines anything invalid so the re-simulation happens on a
// background schedule instead of a request path.

import (
	"context"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"oovec/internal/metrics"
)

// Scrub walks every entry and blob file once, validating the on-disk
// header and payload CRC and decoding each entry's payload as Load does,
// and quarantining (deleting and counting as Corrupt) any file that fails.
// It returns the number of files verified and the number quarantined.
// Scrub is safe to run concurrently with reads and writes: a file that
// disappears mid-walk (evicted, replaced) is simply skipped, and atomic
// renames mean a readable file is always either wholly old or wholly new.
func (s *Store) Scrub() (verified, quarantined int64) {
	var st metrics.RunStats
	filepath.WalkDir(s.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		k, ok := kindOf(d.Name())
		if !ok {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return nil // vanished mid-walk: eviction or replacement won the race
		}
		p, err := validateFile(b, k)
		if err == nil && k == entryKind {
			err = st.UnmarshalBinary(p)
		}
		if err != nil {
			s.quarantine(context.Background(), path)
			quarantined++
			return nil
		}
		verified++
		s.scrubbed.Add(1)
		return nil
	})
	return verified, quarantined
}

// StartScrubber runs Scrub every interval on a background goroutine and
// returns a stop function that halts the scrubber and waits for any
// in-flight pass to finish. An interval <= 0 disables scrubbing; the
// returned stop function is still safe to call.
func (s *Store) StartScrubber(interval time.Duration) (stop func()) {
	if interval <= 0 {
		return func() {}
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
				s.Scrub()
			}
		}
	}()
	return func() {
		close(done)
		<-finished
	}
}

// RecentKeys returns the keys of the most-recently-used result entries,
// newest first, stopping once their cumulative file size exceeds maxBytes
// (<= 0 returns nil). Reads refresh entry mtimes, so recency here is true
// access recency, not write order. The keys are the filename-safe forms —
// identical to the original keys for the hex result keys the simulators
// produce — and feed the warm-start pre-load that repopulates the memory
// tier after a restart.
func (s *Store) RecentKeys(maxBytes int64) []string {
	if maxBytes <= 0 {
		return nil
	}
	type entryFile struct {
		key   string
		size  int64
		mtime time.Time
	}
	var entries []entryFile
	filepath.WalkDir(s.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(d.Name(), entrySuffix) {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return nil
		}
		key := strings.TrimSuffix(d.Name(), entrySuffix)
		entries = append(entries, entryFile{key, info.Size(), info.ModTime()})
		return nil
	})
	// Newest first; ties break on key for determinism under coarse mtimes.
	slices.SortFunc(entries, func(a, b entryFile) int {
		if a.mtime.After(b.mtime) {
			return -1
		}
		if a.mtime.Before(b.mtime) {
			return 1
		}
		return strings.Compare(a.key, b.key)
	})
	var keys []string
	var total int64
	for _, e := range entries {
		total += e.size
		if total > maxBytes {
			break
		}
		keys = append(keys, e.key)
	}
	return keys
}
