package durable

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"github.com/aiql/aiql/internal/sysmon"
)

const (
	manifestMagic = "AQMF"
	// manifestVersion 3 is the only manifest version read or written.
	// Version 2 described stores of pre-columnar segment files, which
	// no longer open.
	manifestVersion = 3
)

// ErrNoManifest reports that the directory holds no manifest — a fresh
// (or never-checkpointed) durable store.
var ErrNoManifest = errors.New("durable: no manifest")

// SegmentRef names one live segment file in a manifest edition.
type SegmentRef struct {
	ID         uint64
	AgentID    uint32
	Bucket     int64
	File       string
	Events     int
	MinTS      int64
	MaxTS      int64
	MinEventID uint64
	MaxEventID uint64
}

// Manifest is one edition of the durable store's metadata: the live
// segment set (in scan order: chunks in insertion order, each chunk's
// chain oldest first), the entity dictionary tables, and the ID
// counters a reopened store resumes from. A manifest is immutable once
// written; editions replace each other atomically via rename.
//
// The encoding is the subsystem's manual little-endian format rather
// than a reflective codec: the dictionary tables hold tens of thousands
// of entity structs, and reflective decoding of those would eat a large
// slice of the fast-load budget that file-per-segment persistence
// exists to win.
type Manifest struct {
	Edition     uint64
	NextSegID   uint64
	NextEventID uint64
	NextSeq     map[uint32]uint64
	Procs       []sysmon.Process
	Files       []sysmon.File
	Conns       []sysmon.Netconn
	Segments    []SegmentRef

	// Layout-affecting store options, enforced on reopen: chunk routing
	// (partitioning, chunk width) decides which chain an event belongs
	// to, and dedup decides how WAL entity deltas were produced —
	// reopening with different values would scatter recovered events
	// across the wrong chunks or diverge the dictionary.
	Partitioning    bool
	ChunkDurationNS int64
	Dedup           bool
}

func boolByte(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// EncodeManifest serializes a manifest edition: magic, version,
// payload, trailing crc32.
func EncodeManifest(m *Manifest) ([]byte, error) {
	w := &byteWriter{buf: make([]byte, 0, 4096)}
	w.buf = append(w.buf, manifestMagic...)
	w.u32(manifestVersion)

	payloadStart := len(w.buf)
	w.u64(m.Edition)
	w.u64(m.NextSegID)
	w.u64(m.NextEventID)
	w.u32(uint32(len(m.NextSeq)))
	for agent, seq := range m.NextSeq {
		w.u32(agent)
		w.u64(seq)
	}
	w.u8(boolByte(m.Partitioning))
	w.i64(m.ChunkDurationNS)
	w.u8(boolByte(m.Dedup))

	w.u32(uint32(len(m.Procs)))
	for i := range m.Procs {
		p := &m.Procs[i]
		w.u32(p.PID)
		w.str(p.ExeName)
		w.str(p.Path)
		w.str(p.User)
		w.str(p.CmdLine)
	}
	w.u32(uint32(len(m.Files)))
	for i := range m.Files {
		f := &m.Files[i]
		w.str(f.Path)
		w.str(f.Owner)
	}
	w.u32(uint32(len(m.Conns)))
	for i := range m.Conns {
		c := &m.Conns[i]
		w.str(c.SrcIP)
		w.u16(c.SrcPort)
		w.str(c.DstIP)
		w.u16(c.DstPort)
		w.str(c.Protocol)
	}

	w.u32(uint32(len(m.Segments)))
	for i := range m.Segments {
		r := &m.Segments[i]
		w.u64(r.ID)
		w.u32(r.AgentID)
		w.i64(r.Bucket)
		w.str(r.File)
		w.u32(uint32(r.Events))
		w.i64(r.MinTS)
		w.i64(r.MaxTS)
		w.u64(r.MinEventID)
		w.u64(r.MaxEventID)
		w.u8(seg2Version)
	}
	w.u32(checksum(w.buf[payloadStart:]))
	return w.buf, nil
}

// DecodeManifest parses and validates a manifest image.
func DecodeManifest(buf []byte) (*Manifest, error) {
	if len(buf) < 12 || string(buf[:4]) != manifestMagic {
		return nil, fmt.Errorf("durable: not a manifest (bad magic)")
	}
	r := &byteReader{buf: buf, off: 4}
	r.zeroCopyStrings()
	if ver := r.u32(); ver != manifestVersion {
		return nil, fmt.Errorf("durable: unsupported manifest version %d (only version %d, which lists v2 columnar segment files, is supported)", ver, manifestVersion)
	}
	if len(buf) < 12+4 {
		return nil, fmt.Errorf("durable: truncated manifest")
	}
	payload := buf[8 : len(buf)-4]
	if crc := uint32(buf[len(buf)-4]) | uint32(buf[len(buf)-3])<<8 | uint32(buf[len(buf)-2])<<16 | uint32(buf[len(buf)-1])<<24; crc != checksum(payload) {
		return nil, fmt.Errorf("durable: manifest checksum mismatch")
	}

	m := &Manifest{}
	m.Edition = r.u64()
	m.NextSegID = r.u64()
	m.NextEventID = r.u64()
	nSeq := int(r.u32())
	if r.fail || nSeq > len(buf) {
		return nil, fmt.Errorf("durable: corrupt manifest (sequence table)")
	}
	m.NextSeq = make(map[uint32]uint64, nSeq)
	for i := 0; i < nSeq; i++ {
		agent := r.u32()
		m.NextSeq[agent] = r.u64()
	}
	m.Partitioning = r.u8() != 0
	m.ChunkDurationNS = r.i64()
	m.Dedup = r.u8() != 0

	nProcs := int(r.u32())
	if r.fail || nProcs > len(buf) {
		return nil, fmt.Errorf("durable: corrupt manifest (process table)")
	}
	m.Procs = make([]sysmon.Process, nProcs)
	for i := range m.Procs {
		p := &m.Procs[i]
		p.PID = r.u32()
		p.ExeName = r.str()
		p.Path = r.str()
		p.User = r.str()
		p.CmdLine = r.str()
	}
	nFiles := int(r.u32())
	if r.fail || nFiles > len(buf) {
		return nil, fmt.Errorf("durable: corrupt manifest (file table)")
	}
	m.Files = make([]sysmon.File, nFiles)
	for i := range m.Files {
		f := &m.Files[i]
		f.Path = r.str()
		f.Owner = r.str()
	}
	nConns := int(r.u32())
	if r.fail || nConns > len(buf) {
		return nil, fmt.Errorf("durable: corrupt manifest (connection table)")
	}
	m.Conns = make([]sysmon.Netconn, nConns)
	for i := range m.Conns {
		c := &m.Conns[i]
		c.SrcIP = r.str()
		c.SrcPort = r.u16()
		c.DstIP = r.str()
		c.DstPort = r.u16()
		c.Protocol = r.str()
	}

	nSegs := int(r.u32())
	if r.fail || nSegs > len(buf) {
		return nil, fmt.Errorf("durable: corrupt manifest (segment table)")
	}
	m.Segments = make([]SegmentRef, nSegs)
	for i := range m.Segments {
		ref := &m.Segments[i]
		ref.ID = r.u64()
		ref.AgentID = r.u32()
		ref.Bucket = r.i64()
		ref.File = r.str()
		ref.Events = int(r.u32())
		ref.MinTS = r.i64()
		ref.MaxTS = r.i64()
		ref.MinEventID = r.u64()
		ref.MaxEventID = r.u64()
		if err := checkRef(ref, r.u8()); err != nil && !r.fail {
			return nil, err
		}
	}
	if err := r.err("manifest"); err != nil {
		return nil, err
	}
	// normalize empties to nil so a round trip is value-identical
	if len(m.Segments) == 0 {
		m.Segments = nil
	}
	if len(m.NextSeq) == 0 {
		m.NextSeq = nil
	}
	if len(m.Procs) == 0 {
		m.Procs = nil
	}
	if len(m.Files) == 0 {
		m.Files = nil
	}
	if len(m.Conns) == 0 {
		m.Conns = nil
	}
	return m, nil
}

// checkRef validates one decoded segment ref and the format byte
// stored beside it. Every writer names a segment's file
// SegmentFileName(ID), so any other name is corruption — and would
// otherwise let a crafted manifest read files outside the store
// directory. A format byte of 1 marks a pre-columnar v1 segment file,
// which no longer opens; refusing the ref here keeps a store from
// opening with those segments silently missing. Format 0 was written
// for compacted v2 segments by earlier releases and is accepted.
func checkRef(ref *SegmentRef, format uint8) error {
	if want := SegmentFileName(ref.ID); ref.File != want {
		return corruptf("manifest names segment %d file %q, want %q", ref.ID, ref.File, want)
	}
	if format != 0 && format != seg2Version {
		return fmt.Errorf("durable: manifest lists segment %d in format v%d; only v2 columnar segment files are supported", ref.ID, format)
	}
	return nil
}

// WriteManifest atomically installs a manifest edition in dir.
func WriteManifest(dir string, m *Manifest) error {
	buf, err := EncodeManifest(m)
	if err != nil {
		return err
	}
	return writeFileAtomic(filepath.Join(dir, ManifestName), buf)
}

// ReadManifest loads the directory's current manifest; ErrNoManifest if
// none exists.
func ReadManifest(dir string) (*Manifest, error) {
	buf, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, ErrNoManifest
	}
	if err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	return DecodeManifest(buf)
}
