package store

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

func TestBlobRoundTrip(t *testing.T) {
	s := mustOpen(t, t.TempDir(), 0)
	payload := []byte("checkpoint payload \x00\x01\x02 with binary bytes")
	if err := s.SaveBlob(context.Background(), "ck-a1b2c3", payload); err != nil {
		t.Fatal(err)
	}
	got, ok := s.LoadBlob(context.Background(), "ck-a1b2c3")
	if !ok {
		t.Fatal("LoadBlob missed a saved blob")
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload mismatch: got %q want %q", got, payload)
	}
	if _, ok := s.LoadBlob(context.Background(), "never-saved"); ok {
		t.Fatal("LoadBlob hit an absent key")
	}

	// Overwrite keeps the accounting truthful: one file, newest payload.
	bigger := append(payload, payload...)
	if err := s.SaveBlob(context.Background(), "ck-a1b2c3", bigger); err != nil {
		t.Fatal(err)
	}
	got, _ = s.LoadBlob(context.Background(), "ck-a1b2c3")
	if !bytes.Equal(got, bigger) {
		t.Fatal("overwrite did not replace the payload")
	}
	if f := s.Stats().Files; f != 1 {
		t.Fatalf("files = %d after overwrite, want 1", f)
	}

	s.DeleteBlob("ck-a1b2c3")
	if _, ok := s.LoadBlob(context.Background(), "ck-a1b2c3"); ok {
		t.Fatal("LoadBlob hit a deleted blob")
	}
	st := s.Stats()
	if st.Files != 0 || st.Bytes != 0 {
		t.Fatalf("accounting after delete: files=%d bytes=%d, want 0/0", st.Files, st.Bytes)
	}
}

func TestBlobSurvivesReopenAndIsCounted(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 0)
	if err := s.SaveBlob(context.Background(), "ck-feed", []byte("persisted across restart")); err != nil {
		t.Fatal(err)
	}
	saveSync(t, s, "aa11", testStats(1))
	s.Close()

	s2 := mustOpen(t, dir, 0)
	if got, ok := s2.LoadBlob(context.Background(), "ck-feed"); !ok || string(got) != "persisted across restart" {
		t.Fatalf("blob did not survive reopen (ok=%v)", ok)
	}
	if f := s2.Stats().Files; f != 2 {
		t.Fatalf("reopened scan counted %d files, want 2 (entry + blob)", f)
	}
}

func TestBlobCorruptionQuarantined(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 0)
	if err := s.SaveBlob(context.Background(), "ck-dead", []byte("soon to be bit-flipped")); err != nil {
		t.Fatal(err)
	}
	path := s.blobPath("ck-dead")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xff
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.LoadBlob(context.Background(), "ck-dead"); ok {
		t.Fatal("LoadBlob returned a corrupt blob")
	}
	if s.Stats().Corrupt != 1 {
		t.Fatalf("corrupt = %d, want 1", s.Stats().Corrupt)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupt blob was not quarantined")
	}
}

func TestEntryAndBlobDoNotDecodeAsEachOther(t *testing.T) {
	s := mustOpen(t, t.TempDir(), 0)
	saveSync(t, s, "a1b2", testStats(7))
	if err := s.SaveBlob(context.Background(), "a1b2", []byte("blob under the same key")); err != nil {
		t.Fatal(err)
	}
	// Same key, two files, each readable only through its own API.
	if _, ok := s.Load(context.Background(), "a1b2"); !ok {
		t.Fatal("entry lost after blob save under same key")
	}
	if _, ok := s.LoadBlob(context.Background(), "a1b2"); !ok {
		t.Fatal("blob lost after entry save under same key")
	}
	// A blob renamed over an entry path must be rejected by magic, not
	// misdecoded.
	blobBytes, _ := os.ReadFile(s.blobPath("a1b2"))
	if err := os.WriteFile(s.path("a1b2"), blobBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Load(context.Background(), "a1b2"); ok {
		t.Fatal("entry Load accepted a blob file")
	}
}

func TestScrubVerifiesAndQuarantines(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 0)
	for i := 0; i < 4; i++ {
		saveSync(t, s, fmt.Sprintf("aa%02d", i), testStats(int64(i)))
	}
	if err := s.SaveBlob(context.Background(), "ck-aa00", []byte("a healthy checkpoint")); err != nil {
		t.Fatal(err)
	}

	verified, quarantined := s.Scrub()
	if verified != 5 || quarantined != 0 {
		t.Fatalf("clean scrub: verified=%d quarantined=%d, want 5/0", verified, quarantined)
	}

	// Flip one byte in an entry payload and truncate the blob.
	p := s.path("aa02")
	b, _ := os.ReadFile(p)
	b[len(b)-1] ^= 0x01
	os.WriteFile(p, b, 0o644)
	bp := s.blobPath("ck-aa00")
	bb, _ := os.ReadFile(bp)
	os.WriteFile(bp, bb[:headerSize+2], 0o644)

	verified, quarantined = s.Scrub()
	if verified != 3 || quarantined != 2 {
		t.Fatalf("dirty scrub: verified=%d quarantined=%d, want 3/2", verified, quarantined)
	}
	st := s.Stats()
	if st.Corrupt != 2 {
		t.Fatalf("corrupt = %d, want 2", st.Corrupt)
	}
	if st.Scrubbed != 8 {
		t.Fatalf("scrubbed = %d, want 8 (5 clean + 3 dirty-pass)", st.Scrubbed)
	}
	if st.Files != 3 {
		t.Fatalf("files = %d after quarantine, want 3", st.Files)
	}
	// The survivors still load.
	for _, k := range []string{"aa00", "aa01", "aa03"} {
		if _, ok := s.Load(context.Background(), k); !ok {
			t.Errorf("entry %s lost by scrub", k)
		}
	}
}

// TestScrubQuarantinesUndecodableEntry: an entry whose header and CRC are
// valid but whose payload does not decode (a trailing byte, CRC recomputed)
// is quarantined by the scrubber, in idle time, not by a later Load.
func TestScrubQuarantinesUndecodableEntry(t *testing.T) {
	s := mustOpen(t, t.TempDir(), 0)
	saveSync(t, s, "aa00", testStats(1))
	saveSync(t, s, "aa01", testStats(2))
	p := s.path("aa01")
	b, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := validateFile(b, entryKind)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, encodeFile(entryKind, append(payload, 0)), 0o644); err != nil {
		t.Fatal(err)
	}

	if verified, quarantined := s.Scrub(); verified != 1 || quarantined != 1 {
		t.Fatalf("scrub: verified=%d quarantined=%d, want 1/1", verified, quarantined)
	}
	if _, err := os.Stat(p); !os.IsNotExist(err) {
		t.Fatal("undecodable entry was not quarantined")
	}
	if st := s.Stats(); st.Corrupt != 1 || st.Misses != 0 || st.Files != 1 {
		t.Fatalf("stats = %+v, want corrupt 1, misses 0, files 1", st)
	}
}

func TestStartScrubberRunsAndStops(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 0)
	saveSync(t, s, "aa00", testStats(1))
	stop := s.StartScrubber(5 * time.Millisecond)
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Scrubbed == 0 {
		if time.Now().After(deadline) {
			t.Fatal("scrubber never ran")
		}
		time.Sleep(time.Millisecond)
	}
	stop()
	stop2 := s.StartScrubber(0) // disabled interval: stop must still be safe
	stop2()
}

func TestRecentKeysMRUOrderAndBudget(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 0)
	var size int64
	for i := 0; i < 4; i++ {
		key := fmt.Sprintf("aa%02d", i)
		saveSync(t, s, key, testStats(int64(i)))
		// Spread mtimes so recency order is unambiguous even on coarse
		// filesystem timestamps: aa03 newest, aa00 oldest.
		mt := time.Now().Add(time.Duration(i-4) * time.Hour)
		os.Chtimes(s.path(key), mt, mt)
		if info, err := os.Stat(s.path(key)); err == nil {
			size = info.Size()
		}
	}
	if err := s.SaveBlob(context.Background(), "ck-aa00", []byte("blobs are not preloadable results")); err != nil {
		t.Fatal(err)
	}

	all := s.RecentKeys(size * 10)
	if want := []string{"aa03", "aa02", "aa01", "aa00"}; !slices.Equal(all, want) {
		t.Fatalf("RecentKeys = %v, want %v", all, want)
	}
	two := s.RecentKeys(size * 2)
	if want := []string{"aa03", "aa02"}; !slices.Equal(two, want) {
		t.Fatalf("RecentKeys(2 entries) = %v, want %v", two, want)
	}
	if got := s.RecentKeys(0); got != nil {
		t.Fatalf("RecentKeys(0) = %v, want nil", got)
	}
}

func TestRecentKeysRoundTripThroughLoad(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 0)
	want := testStats(42)
	saveSync(t, s, "deadbeef00", want)
	s.Close()

	s2 := mustOpen(t, dir, 0)
	keys := s2.RecentKeys(1 << 20)
	if len(keys) != 1 {
		t.Fatalf("RecentKeys = %v, want one key", keys)
	}
	if _, ok := s2.Load(context.Background(), keys[0]); !ok {
		t.Fatalf("key %q from RecentKeys does not Load", keys[0])
	}
	if filepath.Base(s2.path(keys[0])) != "deadbeef00"+entrySuffix {
		t.Fatalf("key %q does not map back to the original file", keys[0])
	}
}
