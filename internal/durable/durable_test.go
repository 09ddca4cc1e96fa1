package durable

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/aiql/aiql/internal/sysmon"
)

func testEvents(n int) []sysmon.Event {
	evs := make([]sysmon.Event, n)
	for i := range evs {
		evs[i] = sysmon.Event{
			ID:      uint64(i + 1),
			AgentID: uint32(i % 3),
			Subject: sysmon.EntityID(i%7 + 1),
			Op:      sysmon.OpWrite,
			ObjType: sysmon.EntityFile,
			Object:  sysmon.EntityID(i%5 + 1),
			StartTS: int64(1000 + i),
			EndTS:   int64(1000 + i + 2),
			Amount:  uint64(i * 10),
			Seq:     uint64(i + 1),
		}
	}
	return evs
}

func testSegment(n int) *SegmentData {
	evs := testEvents(n)
	sub := map[sysmon.EntityID][]int32{}
	obj := map[sysmon.EntityID][]int32{}
	ops := make([]int, sysmon.NumOperations)
	for i := range evs {
		sub[evs[i].Subject] = append(sub[evs[i].Subject], int32(i))
		obj[evs[i].Object] = append(obj[evs[i].Object], int32(i))
		ops[evs[i].Op]++
	}
	return &SegmentData{
		ID: 42, AgentID: 1, Bucket: 99, Events: evs,
		Indexed: true, PostingSub: sub, PostingObj: obj, OpCount: ops,
	}
}

func TestSegmentRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 100} {
		d := testSegment(n)
		_, rd := writeV2(t, d, true)
		evs, err := rd.MaterializeEvents()
		if err != nil {
			t.Fatalf("n=%d: decode: %v", n, err)
		}
		if len(evs) != n || (n > 0 && !reflect.DeepEqual(evs, d.Events)) {
			t.Fatalf("n=%d: events differ after round trip", n)
		}
		if rd.ID != d.ID || rd.AgentID != d.AgentID || rd.Bucket != d.Bucket || rd.Count != n {
			t.Fatalf("n=%d: identity differs: %+v", n, rd)
		}
		if n > 0 && (rd.MinEventID != 1 || rd.MaxEventID != uint64(n)) {
			t.Fatalf("n=%d: event-ID bounds %d..%d", n, rd.MinEventID, rd.MaxEventID)
		}
		sub, obj, err := rd.ReadIndexes()
		if err != nil {
			t.Fatal(err)
		}
		if len(sub) != len(d.PostingSub) || len(obj) != len(d.PostingObj) ||
			(n > 0 && (!reflect.DeepEqual(sub, d.PostingSub) || !reflect.DeepEqual(obj, d.PostingObj))) {
			t.Fatalf("n=%d: postings differ after round trip", n)
		}
		if !reflect.DeepEqual(rd.OpCount, d.OpCount) {
			t.Fatalf("n=%d: op histogram differs", n)
		}
	}
}

func TestSegmentRoundTripUnindexed(t *testing.T) {
	d := &SegmentData{ID: 7, Events: testEvents(10)}
	_, rd := writeV2(t, d, true)
	if rd.Indexed {
		t.Fatal("unindexed segment opened as indexed")
	}
	sub, obj, err := rd.ReadIndexes()
	if err != nil || sub != nil || obj != nil {
		t.Fatalf("unindexed segment read indexes: %v %v %v", sub, obj, err)
	}
	evs, err := rd.MaterializeEvents()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(evs, d.Events) {
		t.Fatal("events differ")
	}
}

// WriteSegmentFileV2 reports the size it wrote (the durable stats sum
// these) and the file reads back whole.
func TestSegmentFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), SegmentFileName(42))
	d := testSegment(50)
	n, err := WriteSegmentFileV2(path, d, true)
	if err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != n {
		t.Fatalf("write reported %d bytes, file has %d", n, fi.Size())
	}
	rd, err := OpenSegmentReader(path)
	if err != nil {
		t.Fatal(err)
	}
	if rd.Size() != n {
		t.Fatalf("reader size %d, wrote %d", rd.Size(), n)
	}
	got, err := rd.MaterializeEvents()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, d.Events) {
		t.Fatal("events differ after file round trip")
	}
}

func TestManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if _, err := ReadManifest(dir); err != ErrNoManifest {
		t.Fatalf("empty dir: got %v, want ErrNoManifest", err)
	}
	m := &Manifest{
		Edition:     3,
		NextSegID:   9,
		NextEventID: 1234,
		NextSeq:     map[uint32]uint64{1: 10, 2: 20},
		Procs:       []sysmon.Process{{PID: 1, ExeName: "cmd.exe"}},
		Files:       []sysmon.File{{Path: "/etc/passwd"}},
		Conns:       []sysmon.Netconn{{SrcIP: "10.0.0.1", DstPort: 443, Protocol: "tcp"}},
		Segments: []SegmentRef{
			{ID: 1, AgentID: 1, File: SegmentFileName(1), Events: 100, MinEventID: 1, MaxEventID: 100},
			{ID: 2, AgentID: 1, File: SegmentFileName(2), Events: 50, MinEventID: 101, MaxEventID: 150},
		},
	}
	if err := WriteManifest(dir, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("manifest differs after round trip:\n got %+v\nwant %+v", got, m)
	}
}

func TestManifestDecodeCorrupt(t *testing.T) {
	buf, err := EncodeManifest(&Manifest{Edition: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{0, 4, 11, len(buf) - 1} {
		if _, err := DecodeManifest(buf[:cut]); err == nil {
			t.Fatalf("clip at %d: no error", cut)
		}
	}
	bad := append([]byte(nil), buf...)
	bad[14] ^= 0xff
	if _, err := DecodeManifest(bad); err == nil {
		t.Fatal("flipped payload byte: no error")
	}
}

// reseal recomputes a manifest image's trailing payload checksum after
// a test patched it.
func reseal(buf []byte) []byte {
	binary.LittleEndian.PutUint32(buf[len(buf)-4:], checksum(buf[8:len(buf)-4]))
	return buf
}

func oneRefManifest(t *testing.T, file string) []byte {
	t.Helper()
	buf, err := EncodeManifest(&Manifest{
		Edition:  1,
		Segments: []SegmentRef{{ID: 3, File: file, Events: 10}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// A version-2 manifest describes a store of pre-columnar segment files,
// which no longer open: decoding must fail with a descriptive error.
func TestManifestRejectsVersion2(t *testing.T) {
	buf := oneRefManifest(t, SegmentFileName(3))
	binary.LittleEndian.PutUint32(buf[4:], 2)
	_, err := DecodeManifest(buf)
	if err == nil || !strings.Contains(err.Error(), "version 2") {
		t.Fatalf("version-2 manifest: err = %v", err)
	}
}

// A ref whose format byte marks a v1 segment file must fail the decode
// of both the base manifest and a delta frame, never decode as a ref
// the store would then fail to open lazily.
func TestManifestRejectsV1SegmentRef(t *testing.T) {
	buf := oneRefManifest(t, SegmentFileName(3))
	buf[len(buf)-5] = 1 // the ref's format byte precedes the crc
	_, err := DecodeManifest(reseal(buf))
	if err == nil || !strings.Contains(err.Error(), "v1") {
		t.Fatalf("v1 ref in manifest: err = %v", err)
	}

	payload := encodeManifestDelta(&ManifestDelta{
		Edition:  1,
		Segments: []SegmentRef{{ID: 3, File: SegmentFileName(3), Events: 10}},
	})
	payload[len(payload)-1] = 1
	if _, err := decodeManifestDelta(payload); err == nil {
		t.Fatal("v1 ref in delta frame decoded")
	}
}

// Every writer names a segment's file SegmentFileName(ID); a CRC-valid
// manifest or delta frame naming anything else — here a path outside
// the store directory — is corrupt, and delta replay must fail rather
// than truncate the frame away.
func TestManifestRejectsForeignFileName(t *testing.T) {
	if _, err := DecodeManifest(oneRefManifest(t, "../x.seg")); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("manifest naming ../x.seg: err = %v, want ErrCorrupt", err)
	}
	if _, err := DecodeManifest(oneRefManifest(t, SegmentFileName(4))); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("manifest naming another segment's file: err = %v, want ErrCorrupt", err)
	}

	dir := t.TempDir()
	if err := AppendManifestDelta(dir, &ManifestDelta{
		Edition:  1,
		Segments: []SegmentRef{{ID: 3, File: "../x.seg", Events: 10}},
	}); err != nil {
		t.Fatal(err)
	}
	size := ManifestDeltaSize(dir)
	m := &Manifest{}
	if _, err := ApplyManifestDeltas(dir, m); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("delta naming ../x.seg: err = %v, want ErrCorrupt", err)
	}
	if len(m.Segments) != 0 {
		t.Fatalf("rejected frame applied: %+v", m.Segments)
	}
	if got := ManifestDeltaSize(dir); got != size {
		t.Fatalf("rejected frame truncated: delta log %d bytes, was %d", got, size)
	}
}

func walRecs(n int) []Rec {
	recs := []Rec{
		{Kind: RecProc, Proc: sysmon.Process{PID: 7, ExeName: "osql.exe", Path: `C:\osql.exe`, User: "svc", CmdLine: "osql -i x"}},
		{Kind: RecFile, File: sysmon.File{Path: "/tmp/backup1.dmp", Owner: "root"}},
		{Kind: RecConn, Conn: sysmon.Netconn{SrcIP: "10.0.0.2", SrcPort: 5555, DstIP: "8.8.8.8", DstPort: 53, Protocol: "udp"}},
	}
	for _, ev := range testEvents(n) {
		recs = append(recs, Rec{Kind: RecEvent, Event: ev})
	}
	return recs
}

func replayAll(t *testing.T, path string) ([]Rec, *WAL) {
	t.Helper()
	var got []Rec
	w, err := OpenWAL(path, func(r Rec) error { got = append(got, r); return nil })
	if err != nil {
		t.Fatal(err)
	}
	return got, w
}

func TestWALAppendReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), WALName)
	w, err := OpenWAL(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	recs := walRecs(20)
	if err := w.Append(recs[:5], false); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(recs[5:], true); err != nil {
		t.Fatal(err)
	}
	if w.Records() != uint64(len(recs)) {
		t.Fatalf("records = %d, want %d", w.Records(), len(recs))
	}
	w.Close()

	got, w2 := replayAll(t, path)
	defer w2.Close()
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("replay differs: got %d recs, want %d", len(got), len(recs))
	}
	if w2.Records() != uint64(len(recs)) || w2.Size() == 0 {
		t.Fatalf("reopened WAL counters: %d recs, %d bytes", w2.Records(), w2.Size())
	}
}

// A crash mid-append leaves a torn final record: replay must deliver
// every record before the tear and the reopened log must truncate the
// garbage so later appends extend a clean file.
func TestWALTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), WALName)
	w, err := OpenWAL(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	recs := walRecs(10)
	if err := w.Append(recs, true); err != nil {
		t.Fatal(err)
	}
	full := w.Size()
	w.Close()

	for _, chop := range []int64{1, 3, 7} {
		dst := filepath.Join(t.TempDir(), WALName)
		buf, _ := os.ReadFile(path)
		if err := os.WriteFile(dst, buf[:full-chop], 0o644); err != nil {
			t.Fatal(err)
		}
		got, w2 := replayAll(t, dst)
		if len(got) != len(recs)-1 {
			t.Fatalf("chop %d: replayed %d, want %d", chop, len(got), len(recs)-1)
		}
		if !reflect.DeepEqual(got, recs[:len(recs)-1]) {
			t.Fatalf("chop %d: surviving records differ", chop)
		}
		// the tail was truncated; appending and replaying again must
		// see the old records plus the new one, with no gap
		if err := w2.Append(recs[:1], true); err != nil {
			t.Fatal(err)
		}
		w2.Close()
		got2, w3 := replayAll(t, dst)
		w3.Close()
		if len(got2) != len(recs) {
			t.Fatalf("chop %d: after repair append, replayed %d, want %d", chop, len(got2), len(recs))
		}
	}
}

// A corrupted byte inside an earlier record stops replay at that
// record: the log is only trusted up to the first bad frame.
func TestWALCorruptMidFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), WALName)
	w, err := OpenWAL(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(walRecs(10), true); err != nil {
		t.Fatal(err)
	}
	w.Close()
	buf, _ := os.ReadFile(path)
	buf[len(buf)/2] ^= 0xff
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	got, w2 := replayAll(t, path)
	w2.Close()
	if len(got) == 0 || len(got) >= len(walRecs(10)) {
		t.Fatalf("replayed %d records through a mid-file corruption", len(got))
	}
}

func TestWALTruncate(t *testing.T) {
	path := filepath.Join(t.TempDir(), WALName)
	w, err := OpenWAL(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(walRecs(5), false); err != nil {
		t.Fatal(err)
	}
	if err := w.Truncate(); err != nil {
		t.Fatal(err)
	}
	if w.Size() != 0 || w.Records() != 0 {
		t.Fatalf("after truncate: %d bytes, %d records", w.Size(), w.Records())
	}
	if err := w.Append(walRecs(2), true); err != nil {
		t.Fatal(err)
	}
	w.Close()
	got, w2 := replayAll(t, path)
	w2.Close()
	if len(got) != len(walRecs(2)) {
		t.Fatalf("after truncate+append: replayed %d, want %d", len(got), len(walRecs(2)))
	}
}
