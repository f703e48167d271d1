// Package store is the durable tier of the simulation result cache: an
// on-disk, content-addressed store holding one file per result key. It is
// what survives a process restart — the in-memory tier (package simcache)
// dies with the process, so without this package every ovserve restart and
// every fresh ovsweep invocation re-simulates a design space it has already
// measured. With it, a restarted server serves previously computed
// (configuration, trace) points byte-identically with zero new simulations.
//
// Durability discipline:
//
//   - Writes are atomic: the entry is staged in a temp file in the final
//     shard directory, synced, then renamed into place. A reader — in this
//     process or another sharing the directory — sees either the complete
//     old entry, the complete new entry, or nothing; never a torn file.
//   - Every file carries a versioned header (magic, format epoch, payload
//     length) and a CRC over the payload. Each file kind has its own epoch,
//     so a change to the entry encoding invalidates stored results but not
//     parked checkpoints. A truncated, bit-flipped, zero-length,
//     wrong-epoch or undecodable file degrades to a cache miss: it is
//     counted, quarantined (deleted), and the result is re-simulated.
//     Corruption can never crash the process or serve a wrong result.
//   - The store is bounded: once the entry files exceed the configured byte
//     budget, a GC pass evicts least-recently-used files (reads bump an
//     entry's mtime) until the store fits again.
//
// Saves are write-behind: Save enqueues and returns, a background writer
// persists, and Flush/Close drain the queue. Callers that must guarantee
// completed work reaches disk before exiting — ovserve's drain path,
// ovsweep's SIGINT path — call Close. If the queue backs up, Save degrades
// to a synchronous write rather than dropping entries or growing without
// bound.
package store

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"oovec/internal/metrics"
	"oovec/internal/span"
)

// headerSize is magic(4) + epoch(4) + payload length(4) + CRC32(4).
const headerSize = 16

// entrySuffix names result entry files; tmpPrefix marks staging files
// that never survive an Open.
const (
	entrySuffix = ".ovr"
	tmpPrefix   = ".tmp-"
)

// fileKind is one of the two kinds of file the store holds: result entries
// (RunStats in its binary encoding, see metrics.RunStats.AppendBinary) and
// checkpoint blobs (opaque payloads, see blobs.go). Each kind has its own
// suffix, magic and format epoch, so neither can decode as the other and
// each is versioned alone; everything else — sharding, header, atomic
// write, validated read, quarantine and the byte budget — is shared.
type fileKind struct {
	suffix, magic string
	// epoch is the format epoch of the kind's payload encoding. Bump it
	// whenever the payload changes meaning — a field added to
	// metrics.RunStats, a different serialisation — and every existing file
	// of the kind self-invalidates on its next read instead of silently
	// decoding into the wrong shape; files of the other kind are untouched.
	epoch uint32
	// span is the "kind" attribute of the kind's store.read/store.write
	// spans; empty (no attribute) for result entries.
	span string
}

// Entry epoch 4 is RunStats' own binary encoding without the two elided-store
// counters (epoch 3 had them, epoch 2 was gob); blobs have been at epoch 2
// since the header gained its epoch field.
var (
	entryKind = fileKind{suffix: entrySuffix, magic: "OVRS", epoch: 4}
	blobKind  = fileKind{suffix: ".ovb", magic: "OVCB", epoch: 2, span: "blob"}
)

// kindOf classifies a file name as an entry or a blob; staging files and
// strays are neither.
func kindOf(name string) (fileKind, bool) {
	for _, k := range [...]fileKind{entryKind, blobKind} {
		if strings.HasSuffix(name, k.suffix) {
			return k, true
		}
	}
	return fileKind{}, false
}

// maxQueue bounds the write-behind queue; beyond it Save writes
// synchronously (backpressure, not loss).
const maxQueue = 256

// crcTable is Castagnoli — hardware-accelerated on the platforms we serve
// from.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Stats is a point-in-time snapshot of the store counters.
type Stats struct {
	// Hits counts Loads served from a valid entry file.
	Hits int64 `json:"hits"`
	// Misses counts Loads that found no usable entry (including corrupt
	// ones, which are also counted in Corrupt).
	Misses int64 `json:"misses"`
	// Writes counts entries persisted; WriteErrors counts persist attempts
	// that failed (disk full, permissions) — the entry is simply not
	// durable, never fatal.
	Writes      int64 `json:"writes"`
	WriteErrors int64 `json:"write_errors"`
	// Corrupt counts files quarantined on read or scrub: truncated,
	// bit-flipped, zero-length, wrong-magic, wrong-epoch or undecodable
	// files, each deleted so they are paid for once.
	Corrupt int64 `json:"corrupt"`
	// Evictions counts entry files deleted by the size-bound GC.
	Evictions int64 `json:"evictions"`
	// Scrubbed counts files the background integrity scrubber has verified;
	// files it found invalid are quarantined and counted in Corrupt.
	Scrubbed int64 `json:"scrubbed"`
	// Bytes and Files size the store right now (entry and blob files).
	Bytes int64 `json:"bytes"`
	Files int64 `json:"files"`
}

// Store is a durable content-addressed result store rooted at one
// directory. Open constructs it; all methods are safe for concurrent use,
// and two Stores (in one process or several) may share a directory.
type Store struct {
	dir      string
	maxBytes int64

	hits        atomic.Int64
	misses      atomic.Int64
	writesN     atomic.Int64
	writeErrors atomic.Int64
	corrupt     atomic.Int64
	evictions   atomic.Int64
	scrubbed    atomic.Int64
	bytes       atomic.Int64
	files       atomic.Int64

	// The write-behind queue. cond guards queue/pending/closed; the writer
	// goroutine drains the queue, Flush and Close wait for pending to reach
	// zero. Broadcast (never Signal) because writer and flushers share the
	// cond.
	mu      sync.Mutex
	cond    *sync.Cond
	queue   []writeReq
	pending int
	closed  bool

	// gcMu serialises GC passes; TryLock skips a pass when one is running.
	gcMu sync.Mutex
}

type writeReq struct {
	key string
	st  *metrics.RunStats
}

// Open roots a store at dir, creating it if needed. maxBytes bounds the
// total size of entry files (<= 0 = unbounded); the bound is enforced by a
// least-recently-used GC after writes. Leftover staging files from a
// previous crash are removed; existing entries are counted so the bound
// holds across restarts.
func Open(dir string, maxBytes int64) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: opening %s: %w", dir, err)
	}
	s := &Store{dir: dir, maxBytes: maxBytes}
	s.cond = sync.NewCond(&s.mu)
	if err := s.scan(); err != nil {
		return nil, err
	}
	go s.writer()
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// MaxBytes returns the configured size bound (<= 0 = unbounded).
func (s *Store) MaxBytes() int64 { return s.maxBytes }

// scan counts the entries already on disk and removes staging leftovers.
func (s *Store) scan() error {
	return filepath.WalkDir(s.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		if strings.HasPrefix(d.Name(), tmpPrefix) {
			os.Remove(path) // a crash mid-write; the rename never happened
		} else if _, ok := kindOf(d.Name()); ok {
			if info, err := d.Info(); err == nil {
				s.bytes.Add(info.Size())
				s.files.Add(1)
			}
		}
		return nil
	})
}

// fileKey maps a cache key onto a filename-safe form. Result keys are
// already short hex strings; anything else (future key schemes, hostile
// input) is hashed rather than trusted near the filesystem.
func fileKey(key string) string {
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'z') && (c < 'A' || c > 'Z') &&
			c != '-' && c != '_' {
			sum := sha256.Sum256([]byte(key))
			return hex.EncodeToString(sum[:16])
		}
	}
	if len(key) < 2 {
		sum := sha256.Sum256([]byte(key))
		return hex.EncodeToString(sum[:16])
	}
	return key
}

// file returns the path of key's file of kind k: a two-character shard
// directory over the filename-safe key, so a large store does not pile
// every file into one directory.
func (s *Store) file(key string, k fileKind) string {
	fk := fileKey(key)
	return filepath.Join(s.dir, fk[:2], fk+k.suffix)
}

// path returns the entry file path for a key.
func (s *Store) path(key string) string { return s.file(key, entryKind) }

// Load returns the stored result for key, or (nil, false) on a miss. A
// file that fails any validation step — size, magic, epoch, length, CRC,
// decode — is quarantined (deleted) and reported as a miss; it can never
// surface as a wrong result. A hit refreshes the file's mtime, which is
// the recency signal the GC evicts by. The context carries the request's
// trace span (a "store.read" child records the read); it never cancels a
// load.
func (s *Store) Load(ctx context.Context, key string) (*metrics.RunStats, bool) {
	st := new(metrics.RunStats)
	if !s.read(ctx, key, entryKind, st.UnmarshalBinary) {
		return nil, false
	}
	return st, true
}

// read is the one validated read of both kinds: it reads key's file of
// kind k, checks the header and CRC, and hands the payload to decode. A
// file failing either step is quarantined; both count as a miss. A hit
// refreshes the file's mtime for the LRU GC. The read is recorded as a
// "store.read" span (attrs key, kind, hit, bytes).
func (s *Store) read(ctx context.Context, key string, k fileKind, decode func(payload []byte) error) bool {
	sp, ctx := span.Start(ctx, "store.read")
	sp.SetAttr("key", key)
	if k.span != "" {
		sp.SetAttr("kind", k.span)
	}
	defer sp.End()
	path := s.file(key, k)
	b, err := os.ReadFile(path)
	if err == nil {
		var p []byte
		if p, err = validateFile(b, k); err == nil {
			err = decode(p)
		}
		if err != nil {
			s.quarantine(ctx, path)
		}
	}
	if err != nil {
		sp.SetAttr("hit", "false")
		s.misses.Add(1)
		return false
	}
	now := time.Now()
	os.Chtimes(path, now, now) // best-effort LRU touch
	s.hits.Add(1)
	sp.SetAttr("hit", "true")
	sp.SetInt("bytes", int64(len(b)))
	return true
}

// quarantine deletes an invalid file and counts it as corrupt.
func (s *Store) quarantine(ctx context.Context, path string) {
	sp, _ := span.Start(ctx, "store.quarantine")
	sp.SetAttr("file", filepath.Base(path))
	defer sp.End()
	s.remove(path)
	s.corrupt.Add(1)
}

// remove deletes a file of either kind and takes it out of the size
// accounting.
func (s *Store) remove(path string) {
	if info, err := os.Stat(path); err == nil {
		if os.Remove(path) == nil {
			s.bytes.Add(-info.Size())
			s.files.Add(-1)
		}
	}
}

// Save persists a result under key, asynchronously: it enqueues for the
// background writer and returns. Entries are immutable once published
// (content-addressed keys), so concurrent saves of one key are benign —
// both render identical bytes and the atomic rename makes last-writer-wins
// safe. When the queue is full, Save writes synchronously instead of
// dropping. After Close, Save is a no-op. The context carries the
// request's trace span (a "store.write" child records the hand-off, attr
// mode = queued, sync or dropped); it never cancels a save.
func (s *Store) Save(ctx context.Context, key string, st *metrics.RunStats) {
	if st == nil {
		return
	}
	sp, _ := span.Start(ctx, "store.write")
	sp.SetAttr("key", key)
	defer sp.End()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		sp.SetAttr("mode", "dropped")
		return
	}
	if len(s.queue) >= maxQueue {
		s.pending++
		s.mu.Unlock()
		sp.SetAttr("mode", "sync")
		s.write(key, st)
		s.done()
		return
	}
	s.queue = append(s.queue, writeReq{key, st})
	s.pending++
	s.cond.Broadcast()
	s.mu.Unlock()
	sp.SetAttr("mode", "queued")
}

// Flush blocks until every Save accepted so far has reached disk (and any
// GC it triggered has finished).
func (s *Store) Flush() {
	s.mu.Lock()
	for s.pending > 0 {
		s.cond.Wait()
	}
	s.mu.Unlock()
}

// Close flushes pending writes and stops the background writer. Further
// Saves are dropped; Loads keep working (the files are still there).
func (s *Store) Close() {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	for s.pending > 0 {
		s.cond.Wait()
	}
	s.mu.Unlock()
}

// writer is the background persistence goroutine: drain the queue, run the
// size GC after each write, wake flushers as work completes.
func (s *Store) writer() {
	s.mu.Lock()
	for {
		for len(s.queue) == 0 && !s.closed {
			s.cond.Wait()
		}
		if len(s.queue) == 0 {
			s.mu.Unlock()
			return // closed and drained
		}
		req := s.queue[0]
		s.queue = s.queue[1:]
		s.mu.Unlock()
		s.write(req.key, req.st)
		s.done()
		s.mu.Lock()
	}
}

// done retires one pending write and wakes Flush/Close waiters.
func (s *Store) done() {
	s.mu.Lock()
	s.pending--
	s.cond.Broadcast()
	s.mu.Unlock()
}

// write persists one entry. Errors are counted, never fatal — a result
// that fails to persist is simply not durable.
func (s *Store) write(key string, st *metrics.RunStats) {
	p, err := st.AppendBinary(nil)
	if err != nil {
		s.writeErrors.Add(1)
		return
	}
	s.writeFile(s.path(key), encodeFile(entryKind, p))
}

// writeFile is the one write path of both kinds: stage b in a temp file in
// the shard directory, sync, rename it over path, account the bytes, then
// enforce the size bound. A failure is counted as a write error and
// returned; whatever file was at path before stands.
func (s *Store) writeFile(path string, b []byte) error {
	fail := func(err error) error {
		s.writeErrors.Add(1)
		return fmt.Errorf("store: writing %s: %w", filepath.Base(path), err)
	}
	shardDir := filepath.Dir(path)
	if err := os.MkdirAll(shardDir, 0o755); err != nil {
		return fail(err)
	}
	f, err := os.CreateTemp(shardDir, tmpPrefix+"*")
	if err != nil {
		return fail(err)
	}
	tmp := f.Name()
	_, werr := f.Write(b)
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp)
		return fail(werr)
	}
	// Size the displaced file (if any) before the rename so the byte
	// accounting stays truthful when a key is overwritten.
	var oldSize int64
	replaced := false
	if info, err := os.Stat(path); err == nil {
		oldSize, replaced = info.Size(), true
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fail(err)
	}
	s.bytes.Add(int64(len(b)) - oldSize)
	if !replaced {
		s.files.Add(1)
	}
	s.writesN.Add(1)
	s.maybeGC()
	return nil
}

// maybeGC enforces the byte budget: when the store exceeds it, entry files
// are deleted least-recently-used first (mtime order; Load refreshes
// mtimes) down to a low-water mark of 90% of the budget, so a store
// sitting at its bound amortises the directory walk over many writes
// instead of re-walking on every one. The walk also resynchronises the
// byte accounting, so processes sharing a directory converge on the real
// on-disk usage.
func (s *Store) maybeGC() {
	if s.maxBytes <= 0 || s.bytes.Load() <= s.maxBytes {
		return
	}
	if !s.gcMu.TryLock() {
		return // a pass is already running
	}
	defer s.gcMu.Unlock()

	// Snapshot the accounting before the walk: the correction below is
	// applied as a delta against this, so updates that land concurrently
	// (a synchronous Save's rename, a quarantine) are preserved instead of
	// erased by an absolute store. A concurrent update double-counted by
	// both the walk and the delta only overshoots — which triggers the
	// next GC pass early and self-corrects there — never loses bytes.
	beforeBytes := s.bytes.Load()
	beforeFiles := s.files.Load()

	type entryFile struct {
		path  string
		size  int64
		mtime time.Time
	}
	var entries []entryFile
	var total int64
	filepath.WalkDir(s.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		if _, ok := kindOf(d.Name()); !ok {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return nil
		}
		entries = append(entries, entryFile{path, info.Size(), info.ModTime()})
		total += info.Size()
		return nil
	})
	// Oldest first; ties break on path so the order is deterministic even
	// with coarse mtimes.
	slices.SortFunc(entries, func(a, b entryFile) int {
		if a.mtime.Before(b.mtime) {
			return -1
		}
		if a.mtime.After(b.mtime) {
			return 1
		}
		return strings.Compare(a.path, b.path)
	})
	lowWater := s.maxBytes - s.maxBytes/10
	files := int64(len(entries))
	for _, e := range entries {
		if total <= lowWater {
			break
		}
		if os.Remove(e.path) == nil {
			total -= e.size
			files--
			s.evictions.Add(1)
		}
	}
	s.bytes.Add(total - beforeBytes)
	s.files.Add(files - beforeFiles)
}

// Stats snapshots the counters.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:        s.hits.Load(),
		Misses:      s.misses.Load(),
		Writes:      s.writesN.Load(),
		WriteErrors: s.writeErrors.Load(),
		Corrupt:     s.corrupt.Load(),
		Evictions:   s.evictions.Load(),
		Scrubbed:    s.scrubbed.Load(),
		Bytes:       s.bytes.Load(),
		Files:       s.files.Load(),
	}
}

// encodeFile renders one file of either kind: the header (the kind's
// magic and epoch, payload length, CRC32-Castagnoli over the payload)
// followed by the payload verbatim.
func encodeFile(k fileKind, payload []byte) []byte {
	b := make([]byte, headerSize+len(payload))
	copy(b[0:4], k.magic)
	binary.BigEndian.PutUint32(b[4:8], k.epoch)
	binary.BigEndian.PutUint32(b[8:12], uint32(len(payload)))
	binary.BigEndian.PutUint32(b[12:16], crc32.Checksum(payload, crcTable))
	copy(b[headerSize:], payload)
	return b
}

// validateFile checks the header (magic, epoch, length, CRC) and returns
// the payload bytes. It is the integrity check both the read path and the
// background scrubber run.
func validateFile(b []byte, k fileKind) ([]byte, error) {
	if len(b) < headerSize {
		return nil, fmt.Errorf("store: file too short (%d bytes)", len(b))
	}
	if !bytes.Equal(b[0:4], []byte(k.magic)) {
		return nil, fmt.Errorf("store: bad magic %q, want %q", b[0:4], k.magic)
	}
	if epoch := binary.BigEndian.Uint32(b[4:8]); epoch != k.epoch {
		return nil, fmt.Errorf("store: format epoch %d, want %d", epoch, k.epoch)
	}
	plen := binary.BigEndian.Uint32(b[8:12])
	if int(plen) != len(b)-headerSize {
		return nil, fmt.Errorf("store: payload length %d, have %d bytes", plen, len(b)-headerSize)
	}
	p := b[headerSize:]
	if got, want := crc32.Checksum(p, crcTable), binary.BigEndian.Uint32(b[12:16]); got != want {
		return nil, fmt.Errorf("store: payload CRC %08x, want %08x", got, want)
	}
	return p, nil
}
