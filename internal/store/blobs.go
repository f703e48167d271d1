package store

// Checkpoint blobs: the second kind of store file, holding opaque payloads
// — the serialised mid-run machine checkpoints of the preemptible job
// layer — rather than encoded RunStats. Blobs go through the same file
// path as result entries (writeFile, read, remove), so they share the
// directory, the durability discipline and the byte budget, but keep their
// own format epoch: a change to the entry encoding leaves parked
// checkpoints resumable. Blob writes
// are synchronous: a checkpoint is persisted exactly when the caller needs
// the durability guarantee (cancellation, preemption, shutdown), so there
// is nothing to batch behind.

import (
	"context"

	"oovec/internal/span"
)

// blobPath returns the blob file path for a key.
func (s *Store) blobPath(key string) string { return s.file(key, blobKind) }

// SaveBlob persists an opaque payload under key, synchronously and
// atomically. It returns an error (and counts a write error) when the blob
// could not be made durable; the store is otherwise unaffected. The
// context carries the trace span of the job being parked (a "store.write"
// child with kind=blob records the write); it never cancels the save.
func (s *Store) SaveBlob(ctx context.Context, key string, payload []byte) error {
	sp, _ := span.Start(ctx, "store.write")
	sp.SetAttr("key", key)
	sp.SetAttr("kind", blobKind.span)
	sp.SetInt("bytes", int64(len(payload)))
	defer sp.End()
	return s.writeFile(s.blobPath(key), encodeFile(blobKind, payload))
}

// LoadBlob returns the payload stored under key, or (nil, false). Corrupt
// blobs are quarantined and reported as misses, exactly like result
// entries; a hit refreshes the file's mtime for the LRU GC. The context
// carries the trace span of the job being restored (a "store.read" child
// with kind=blob records the read).
func (s *Store) LoadBlob(ctx context.Context, key string) ([]byte, bool) {
	var payload []byte
	ok := s.read(ctx, key, blobKind, func(p []byte) error {
		payload = p
		return nil
	})
	return payload, ok
}

// DeleteBlob removes the blob stored under key, if any. Callers use it to
// retire a checkpoint once the run it belongs to has completed.
func (s *Store) DeleteBlob(key string) { s.remove(s.blobPath(key)) }
