package store

import (
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"oovec/internal/metrics"
)

// testStats builds a distinctive RunStats so decode errors and torn reads
// cannot masquerade as the right answer.
func testStats(seed int64) *metrics.RunStats {
	st := &metrics.RunStats{
		Machine:      "OOOVA",
		Program:      "swm256",
		Cycles:       1_000_000 + seed,
		MemPortBusy:  777 + seed,
		MemRequests:  888 + seed,
		Instructions: 8000,
		Mispredicts:  3,
	}
	for i := range st.States {
		st.States[i] = seed*10 + int64(i)
	}
	return st
}

func mustOpen(t *testing.T, dir string, maxBytes int64) *Store {
	t.Helper()
	s, err := Open(dir, maxBytes)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// saveSync persists one entry and waits for it to reach disk.
func saveSync(t *testing.T, s *Store, key string, st *metrics.RunStats) {
	t.Helper()
	s.Save(context.Background(), key, st)
	s.Flush()
}

func TestSaveLoadRoundTrip(t *testing.T) {
	s := mustOpen(t, t.TempDir(), 0)
	want := testStats(1)
	saveSync(t, s, "a1b2c3", want)

	got, ok := s.Load(context.Background(), "a1b2c3")
	if !ok {
		t.Fatal("Load missed a saved entry")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip changed the result:\ngot  %+v\nwant %+v", got, want)
	}
	if got == want {
		t.Fatal("Load returned the saved pointer; entries must decode fresh")
	}
	st := s.Stats()
	if st.Hits != 1 || st.Writes != 1 || st.Files != 1 || st.Bytes <= 0 {
		t.Fatalf("stats = %+v, want 1 hit, 1 write, 1 file, bytes > 0", st)
	}
}

func TestLoadMissOnEmptyStore(t *testing.T) {
	s := mustOpen(t, t.TempDir(), 0)
	if _, ok := s.Load(context.Background(), "deadbeef"); ok {
		t.Fatal("empty store reported a hit")
	}
	if st := s.Stats(); st.Misses != 1 {
		t.Fatalf("misses = %d, want 1", st.Misses)
	}
}

// TestRestartSeesEntries is the point of the package: a second store handle
// on the same directory (a restarted process) serves the first one's
// entries.
func TestRestartSeesEntries(t *testing.T) {
	dir := t.TempDir()
	want := testStats(7)
	s1 := mustOpen(t, dir, 0)
	saveSync(t, s1, "cafe01", want)
	s1.Close()

	s2 := mustOpen(t, dir, 0)
	got, ok := s2.Load(context.Background(), "cafe01")
	if !ok {
		t.Fatal("restarted store missed a persisted entry")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("restarted store returned different metrics")
	}
	if st := s2.Stats(); st.Files != 1 || st.Bytes <= 0 {
		t.Fatalf("restart scan found %d files / %d bytes, want 1 / > 0", st.Files, st.Bytes)
	}
}

// TestCorruptEntriesAreMissesNeverResults is the corruption-robustness
// table: every damaged form of an entry file must load as a miss, be
// quarantined (deleted), and never decode into a result or a panic.
func TestCorruptEntriesAreMissesNeverResults(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(b []byte) []byte
	}{
		{"zero-length", func(b []byte) []byte { return nil }},
		{"truncated header", func(b []byte) []byte { return b[:headerSize/2] }},
		{"truncated payload", func(b []byte) []byte { return b[:len(b)-3] }},
		{"bit flip in payload", func(b []byte) []byte {
			b[headerSize+2] ^= 0x40
			return b
		}},
		{"bit flip in header length", func(b []byte) []byte {
			b[9] ^= 0x01
			return b
		}},
		{"wrong magic", func(b []byte) []byte {
			copy(b[0:4], "NOPE")
			return b
		}},
		{"wrong epoch", func(b []byte) []byte {
			binary.BigEndian.PutUint32(b[4:8], entryKind.epoch+1)
			return b
		}},
		{"trailing garbage", func(b []byte) []byte {
			return append(b, 0xaa, 0xbb)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := mustOpen(t, t.TempDir(), 0)
			key := "feedf00d"
			saveSync(t, s, key, testStats(3))
			path := s.path(key)
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.corrupt(b), 0o644); err != nil {
				t.Fatal(err)
			}

			if got, ok := s.Load(context.Background(), key); ok {
				t.Fatalf("corrupt entry served as a result: %+v", got)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Error("corrupt entry was not quarantined (file still present)")
			}
			st := s.Stats()
			if st.Corrupt != 1 {
				t.Errorf("corrupt counter = %d, want 1", st.Corrupt)
			}
			if st.Files != 0 {
				t.Errorf("file accounting = %d after quarantine, want 0", st.Files)
			}
			// The slot is reusable: a fresh save fills it again.
			saveSync(t, s, key, testStats(4))
			if got, ok := s.Load(context.Background(), key); !ok || !reflect.DeepEqual(got, testStats(4)) {
				t.Error("slot unusable after quarantine")
			}
		})
	}
}

// TestGCKeepsStoreWithinBudget drives sustained inserts through a small
// byte budget and asserts the bound holds on disk, oldest entries go first,
// and the freshest entry survives.
func TestGCKeepsStoreWithinBudget(t *testing.T) {
	dir := t.TempDir()
	// Size the budget from a real entry so the test tracks encoding changes.
	probe := mustOpen(t, t.TempDir(), 0)
	saveSync(t, probe, "aa00", testStats(0))
	entrySize := probe.Stats().Bytes
	probe.Close()

	budget := entrySize * 5
	s := mustOpen(t, dir, budget)
	const inserts = 40
	var lastKey string
	for i := 0; i < inserts; i++ {
		lastKey = fmt.Sprintf("%08x", i)
		s.Save(context.Background(), lastKey, testStats(int64(i)))
	}
	s.Flush()

	var onDisk int64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			onDisk += info.Size()
		}
		return nil
	})
	if onDisk > budget {
		t.Errorf("store holds %d bytes on disk, budget is %d", onDisk, budget)
	}
	st := s.Stats()
	if st.Bytes > budget {
		t.Errorf("accounted bytes %d exceed budget %d", st.Bytes, budget)
	}
	if st.Evictions == 0 {
		t.Error("sustained inserts over budget evicted nothing")
	}
	if _, ok := s.Load(context.Background(), lastKey); !ok {
		t.Error("the most recently written entry was evicted")
	}
}

// TestRestartRespectsExistingBytes: the Open scan counts pre-existing
// entries, so the bound holds across restarts too.
func TestRestartRespectsExistingBytes(t *testing.T) {
	dir := t.TempDir()
	s1 := mustOpen(t, dir, 0)
	for i := 0; i < 10; i++ {
		s1.Save(context.Background(), fmt.Sprintf("%08x", i), testStats(int64(i)))
	}
	s1.Flush()
	before := s1.Stats().Bytes
	s1.Close()

	s2 := mustOpen(t, dir, before/2)
	if got := s2.Stats().Bytes; got != before {
		t.Fatalf("restart scan counted %d bytes, want %d", got, before)
	}
	// One more insert must trigger GC down to the (smaller) budget.
	saveSync(t, s2, "ffffffff", testStats(99))
	if got := s2.Stats().Bytes; got > before/2 {
		t.Errorf("store holds %d bytes after restart GC, budget is %d", got, before/2)
	}
}

// TestOpenRemovesStaleTempFiles: staging files from a crashed writer never
// become entries and are cleaned up.
func TestOpenRemovesStaleTempFiles(t *testing.T) {
	dir := t.TempDir()
	shard := filepath.Join(dir, "ab")
	if err := os.MkdirAll(shard, 0o755); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(shard, tmpPrefix+"12345")
	if err := os.WriteFile(stale, []byte("half a write"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := mustOpen(t, dir, 0)
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Error("Open left a stale temp file behind")
	}
	if st := s.Stats(); st.Files != 0 || st.Bytes != 0 {
		t.Errorf("temp file was counted as an entry: %+v", st)
	}
}

// TestConcurrentWritersNeverTornRead is the cross-process concurrency
// guard, run under -race in CI: two store handles on one directory (two
// processes' worth of writers) hammer the same key while readers load it
// continuously. Every successful Load must decode the complete entry —
// the CRC plus atomic rename make a torn read impossible.
func TestConcurrentWritersNeverTornRead(t *testing.T) {
	dir := t.TempDir()
	a := mustOpen(t, dir, 0)
	b := mustOpen(t, dir, 0)
	const key = "0123456789abcdef"
	want := testStats(42)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, h := range []*Store{a, b} {
		wg.Add(1)
		go func(h *Store) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					h.Save(context.Background(), key, testStats(42))
				}
			}
		}(h)
	}
	tornOrWrong := make(chan string, 1)
	for _, h := range []*Store{a, b} {
		wg.Add(1)
		go func(h *Store) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					if got, ok := h.Load(context.Background(), key); ok && !reflect.DeepEqual(got, want) {
						select {
						case tornOrWrong <- fmt.Sprintf("%+v", got):
						default:
						}
						return
					}
				}
			}
		}(h)
	}
	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()
	select {
	case got := <-tornOrWrong:
		t.Fatalf("a reader observed a torn or wrong entry: %s", got)
	default:
	}
	// And corruption was never (falsely) detected on a well-formed file.
	if ca, cb := a.Stats().Corrupt, b.Stats().Corrupt; ca != 0 || cb != 0 {
		t.Errorf("concurrent writes were misread as corruption (%d, %d quarantines)", ca, cb)
	}
}

// TestHostileKeysStayInsideDir: keys with separators or traversal attempts
// are hashed onto safe filenames, never interpreted as paths.
func TestHostileKeysStayInsideDir(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 0)
	for _, key := range []string{"../../etc/passwd", "a/b/c", "", ".", "..", "k\x00v"} {
		saveSync(t, s, key, testStats(1))
		if _, ok := s.Load(context.Background(), key); !ok {
			t.Errorf("key %q did not round-trip", key)
		}
		path := s.path(key)
		rel, err := filepath.Rel(dir, path)
		if err != nil || rel == ".." || filepath.IsAbs(rel) || len(rel) >= 3 && rel[:3] == ".."+string(filepath.Separator) {
			t.Errorf("key %q mapped outside the store dir: %s", key, path)
		}
	}
}

// TestCloseFlushesPendingWrites: the ovsweep SIGINT contract — everything
// accepted by Save before Close is durable after Close returns.
func TestCloseFlushesPendingWrites(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	for i := 0; i < n; i++ {
		s.Save(context.Background(), fmt.Sprintf("%08x", i), testStats(int64(i)))
	}
	s.Close()

	s2 := mustOpen(t, dir, 0)
	for i := 0; i < n; i++ {
		if _, ok := s2.Load(context.Background(), fmt.Sprintf("%08x", i)); !ok {
			t.Fatalf("entry %d accepted before Close was not durable", i)
		}
	}
	// Saves after Close are dropped, not crashed.
	s.Save(context.Background(), "after", testStats(1))
	if _, ok := s2.Load(context.Background(), "after"); ok {
		t.Error("Save after Close persisted an entry")
	}
}
