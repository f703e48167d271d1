package store

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"reflect"
	"testing"

	"oovec/internal/metrics"
)

// fillLeaves sets every leaf under v, recursively, to a distinct non-zero
// value: strings to distinct names, int64s to distinct values of both signs
// and wide magnitudes. A leaf of any other kind fails the test, so a new
// field of a new kind cannot slip past the codec unnoticed.
func fillLeaves(t *testing.T, v reflect.Value, n *int64) {
	t.Helper()
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillLeaves(t, v.Field(i), n)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fillLeaves(t, v.Index(i), n)
		}
	case reflect.String:
		*n++
		v.SetString("leaf-" + hex.EncodeToString(binary.AppendVarint(nil, *n)))
	case reflect.Int64:
		*n++
		x := *n * 0x10000000001
		if *n%2 == 0 {
			x = -x
		}
		v.SetInt(x)
	default:
		t.Fatalf("RunStats leaf of kind %s has no encoding", v.Kind())
	}
}

// TestEntryCodecIsComplete round-trips a RunStats with every leaf set
// through the binary codec and through Save/Load: a field added to
// RunStats but not to its encoding comes back zero and fails here.
func TestEntryCodecIsComplete(t *testing.T) {
	want := new(metrics.RunStats)
	var n int64
	fillLeaves(t, reflect.ValueOf(want).Elem(), &n)

	p, err := want.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	got := new(metrics.RunStats)
	if err := got.UnmarshalBinary(p); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("codec round trip lost leaves:\ngot  %+v\nwant %+v", got, want)
	}

	s := mustOpen(t, t.TempDir(), 0)
	saveSync(t, s, "c0de01", want)
	if got, ok := s.Load(context.Background(), "c0de01"); !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("Save/Load round trip: got %+v, %v; want %+v", got, ok, want)
	}
}

// FuzzEntryDecode feeds arbitrary payloads to the entry decoder, the
// untrusted boundary of the disk tier: it must return an error or a
// RunStats that re-encodes to exactly the input, never panic, and never
// build a string longer than the payload.
func FuzzEntryDecode(f *testing.F) {
	b, err := hex.DecodeString(goldenEntryHex)
	if err != nil {
		f.Fatal(err)
	}
	golden := b[headerSize:]
	for n := range golden {
		f.Add(golden[:n])
	}
	f.Add(golden)
	f.Add(append(binary.AppendUvarint(nil, 1<<62), golden[1:]...))
	f.Add(append(golden[:len(golden):len(golden)], 0))
	f.Fuzz(func(t *testing.T, p []byte) {
		var st metrics.RunStats
		err := st.UnmarshalBinary(p)
		if n := len(st.Machine) + len(st.Program); n > len(p) {
			t.Fatalf("decoded %d string bytes from a %d-byte payload", n, len(p))
		}
		if err != nil {
			return
		}
		q, err := st.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(q, p) {
			t.Fatalf("payload %x decodes to %+v, which re-encodes to %x", p, st, q)
		}
	})
}
