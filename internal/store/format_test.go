package store

import (
	"bytes"
	"context"
	"encoding/hex"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"oovec/internal/metrics"
)

// goldenGobEntryHex and goldenBlobHex are one entry file and one blob file
// as the store wrote them at epoch 2, before entries and blobs shared one
// write and read path: goldenStats() gob-encoded under the entry magic, and
// goldenBlobPayload under the blob magic. goldenEpoch3EntryHex is
// goldenStats() in RunStats' binary encoding at entry epoch 3, which still
// carried the two elided-store counters; goldenEntryHex is the same at
// entry epoch 4.
const (
	goldenGobEntryHex = "" +
		"4f565253000000020000030e783996e0fe01467f0301010852756e5374617473" +
		"01ff8000011201074d616368696e65010c00010750726f6772616d010c000106" +
		"4379636c6573010400010653746174657301ff8200010b4d656d506f72744275" +
		"7379010400010b4d656d5265717565737473010400010c496e73747275637469" +
		"6f6e73010400011656526567506f7274436f6e666c6963744379636c65730104" +
		"00010b4d69737072656469637473010400010f456c696d696e617465644c6f61" +
		"64730104000112456c696d696e617465645265717565737473010400010c456c" +
		"6964656453746f726573010400010e456c696465645265717565737473010400" +
		"010f4465636f64655374616c6c5265677301040001104465636f64655374616c" +
		"6c5175657565010400010e4465636f64655374616c6c524f4201040001065374" +
		"616c6c7301ff840001094f63637570616e637901ff8600000019ff8101010109" +
		"427265616b646f776e01ff8200010401100000ffa8ff830301010e5374616c6c" +
		"427265616b646f776e01ff8400010b0107524f4246756c6c0104000107495146" +
		"756c6c410104000107495146756c6c530104000107495146756c6c5601040001" +
		"07495146756c6c4d01040001074e6f506879734101040001074e6f5068797353" +
		"01040001074e6f506879735601040001074e6f506879734d010400010c506f72" +
		"74436f6e666c696374010400010a4d656d42757342757379010400000044ff85" +
		"030101094f63637570616e637901ff860001050103524f4201ff880001034951" +
		"4101ff8800010349515301ff8800010349515601ff8800010349514d01ff8800" +
		"000029ff87030101074f63634869737401ff8800010201034361700104000106" +
		"436f756e747301ff8a00000018ff89010101085b395d696e74363401ff8a0001" +
		"040112000078ff8001054f4f4f564101047472666401fe607201080016000000" +
		"00000001fe054c01fe071c01fe07d00206010407010a00010101ff8001090200" +
		"0000000000000000010209000000000000000000000102090000000000000000" +
		"000001020900000000000000000000010209000000000000000000000000"
	goldenEpoch3EntryHex = "" +
		"4f565253000000030000006329450d8a054f4f4f56410474726664f2c0010016" +
		"000000000000cc0a9c0ed00f0006040000000000000a00000000000000000000" +
		"8001020000000000000000000000000000000000000000000000000000000000" +
		"00000000000000000000000000000000000000"
	goldenEntryHex = "" +
		"4f56525300000004000000612ea5d73a054f4f4f56410474726664f2c0010016" +
		"000000000000cc0a9c0ed00f000604000000000a000000000000000000008001" +
		"0200000000000000000000000000000000000000000000000000000000000000" +
		"0000000000000000000000000000000000"
	goldenBlobHex = "4f564342000000020000000d7dc809d4636865636b706f696e740001ff"
)

const goldenBlobPayload = "checkpoint\x00\x01\xff"

func goldenStats() *metrics.RunStats {
	st := &metrics.RunStats{
		Machine: "OOOVA", Program: "trfd", Cycles: 12345,
		MemPortBusy: 678, MemRequests: 910, Instructions: 1000,
		Mispredicts: 3, EliminatedLoads: 2,
	}
	st.States[1] = 11
	st.Stalls.ROBFull = 5
	st.Occupancy.ROB.Observe(metrics.NewOccTable(64), 3)
	return st
}

// TestOnDiskFormatIsStable pins the on-disk bytes of both file kinds:
// files written by the earlier code of the same epoch still load, and
// saving the same values again writes the same bytes. A failure here is a
// format change, which must bump the kind's epoch. Entries of the gob
// epoch and of epoch 3 are quarantined misses: entries moved to epoch 3 and
// then 4 while blobs stayed at 2, so checkpoints parked before the changes
// still resume.
func TestOnDiskFormatIsStable(t *testing.T) {
	decode := func(h string) []byte {
		b, err := hex.DecodeString(h)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	entry, blob := decode(goldenEntryHex), decode(goldenBlobHex)
	s := mustOpen(t, t.TempDir(), 0)
	ctx := context.Background()
	place := func(path string, b []byte) {
		t.Helper()
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// Entries of an earlier epoch are misses, each quarantined once.
	for i, c := range []struct{ key, era, hex string }{
		{"feed00", "gob-era", goldenGobEntryHex},
		{"feed03", "epoch-3", goldenEpoch3EntryHex},
	} {
		place(s.path(c.key), decode(c.hex))
		if got, ok := s.Load(ctx, c.key); ok {
			t.Errorf("%s entry loaded as %+v; want a miss", c.era, got)
		}
		if _, err := os.Stat(s.path(c.key)); !os.IsNotExist(err) {
			t.Errorf("%s entry was not quarantined", c.era)
		}
		if n := s.Stats().Corrupt; n != int64(i+1) {
			t.Errorf("corrupt = %d after the %s entry, want %d", n, c.era, i+1)
		}
	}

	// The current bytes load.
	const old = "feed01"
	place(s.path(old), entry)
	place(s.blobPath(old), blob)
	if got, ok := s.Load(ctx, old); !ok || !reflect.DeepEqual(got, goldenStats()) {
		t.Errorf("golden entry: Load = %+v, %v; want %+v", got, ok, goldenStats())
	}
	if got, ok := s.LoadBlob(ctx, old); !ok || string(got) != goldenBlobPayload {
		t.Errorf("golden blob: LoadBlob = %q, %v; want %q", got, ok, goldenBlobPayload)
	}

	// The same values encode to the same bytes.
	const fresh = "feed02"
	saveSync(t, s, fresh, goldenStats())
	if err := s.SaveBlob(ctx, fresh, []byte(goldenBlobPayload)); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, path string
		want       []byte
	}{
		{"entry", s.path(fresh), entry},
		{"blob", s.blobPath(fresh), blob},
	} {
		got, err := os.ReadFile(c.path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, c.want) {
			t.Errorf("%s file bytes changed:\ngot  %x\nwant %x", c.name, got, c.want)
		}
	}
}
