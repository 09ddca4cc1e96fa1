package durable

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
)

// FuzzManifestDecode feeds arbitrary bytes to every manifest decoder: as
// a base MANIFEST image, as one delta frame payload, and as a whole
// MANIFEST.delta log replayed onto an empty base. Each must return an
// error or a manifest — never panic. The seed corpus under
// testdata/fuzz holds real encodings of each form.
func FuzzManifestDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		DecodeManifest(data)
		// The checksum stops nearly every mutation before the field
		// decoding; re-seal the payload so the parser itself is fuzzed.
		if len(data) >= 12 {
			sealed := append([]byte(nil), data...)
			binary.LittleEndian.PutUint32(sealed[len(sealed)-4:], checksum(sealed[8:len(sealed)-4]))
			DecodeManifest(sealed)
		}
		decodeManifestDelta(data)
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, ManifestDeltaName), data, 0o644); err != nil {
			t.Skip()
		}
		ApplyManifestDeltas(dir, &Manifest{})
	})
}

// FuzzWALReplay writes arbitrary bytes as a wal.log and opens it: replay
// must never panic, and the torn-tail truncation must leave a log that
// replays the same records again on the next open. The seed corpus
// under testdata/fuzz holds real WAL images.
func FuzzWALReplay(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		decodeRec(data)
		path := filepath.Join(t.TempDir(), WALName)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		replay := func() (uint64, int64) {
			n := uint64(0)
			w, err := OpenWAL(path, func(Rec) error { n++; return nil })
			if err != nil {
				t.Fatal(err)
			}
			if n != w.Records() {
				t.Fatalf("replayed %d records, WAL counts %d", n, w.Records())
			}
			size := w.Size()
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			return n, size
		}
		n1, size1 := replay()
		if n2, size2 := replay(); n2 != n1 || size2 != size1 {
			t.Fatalf("second replay: %d records / %d bytes, first: %d / %d", n2, size2, n1, size1)
		}
	})
}
