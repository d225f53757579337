// Package dbstore is the persistent snapshot store for the built
// configuration database: a versioned binary format that round-trips a
// db.DB bit-identically, so a service cold start is a fast file load
// instead of a full detailed-simulation rebuild.
//
// A snapshot is a fixed header followed by a dense payload:
//
//	header (40 bytes)
//	  magic       [8]byte  "QOSRMSNP"
//	  version     uint32   format version (Version)
//	  reserved    uint32   zero
//	  params hash uint64   FNV-1a over the build parameters and the
//	                       suite definition the database was built from
//	  payload len uint64
//	  checksum    uint64   CRC-64/ECMA of the payload bytes
//	payload
//	  trace len   uint32
//	  warmup      uint32
//	  benchmarks  uint32
//	  per benchmark, sorted by name (the format is canonical — one
//	  database has exactly one serialisation):
//	    name      uint16 length + bytes
//	    phases    uint32
//	    per phase: the simulated corner block, little-endian float64s
//	    in field order (db.CornerRuns)
//
// Only the simulated corners are stored. The dense interpolated grid is
// a deterministic function of them and is re-materialised lazily after a
// load, which is what makes a loaded database bit-identical to a freshly
// built one (asserted by the round-trip tests) without serialising
// derived state.
//
// Integrity is layered: magic and version reject foreign or stale
// formats, the checksum rejects truncation and corruption, structural
// bounds reject malformed counts, and the params hash rejects a
// snapshot whose suite definition or build parameters no longer match
// the binary reading it (the suite is code, so a code change invalidates
// old snapshots). Any Stats schema change must bump Version.
package dbstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"

	"qosrm/internal/bench"
	"qosrm/internal/config"
	"qosrm/internal/db"
)

// Version is the current snapshot format version. Bump on any change to
// the header, the payload layout, or the db.Stats field set.
const Version = 1

// magic identifies a qosrm database snapshot.
var magic = [8]byte{'Q', 'O', 'S', 'R', 'M', 'S', 'N', 'P'}

const (
	headerSize = 40

	// statsScalars is the number of scalar float64 fields serialised per
	// db.Stats record, in fixed field order (see putStats/getStats).
	statsScalars = 15
	statsFloats  = statsScalars + db.NumWays + config.NumSizes*db.NumWays
	phaseBytes   = config.NumSizes * db.NumCorners * db.NumWays * statsFloats * 8

	// maxPayload bounds the payload a reader will accept; the full suite
	// is a few megabytes, so this is generous headroom, not a limit
	// anyone should meet.
	maxPayload = 1 << 31

	// preallocPayload bounds the payload length a reader will allocate
	// up front on the header's say-so. Below it, the payload buffer is
	// exactly sized before reading (the full suite is ~6 MB; the
	// append-growth copies of a growing read used to cost several times
	// the payload in allocations); above it, the reader falls back to
	// growth proportional to the actual input, so a forged length field
	// cannot force a huge allocation.
	preallocPayload = 64 << 20

	// maxBenches and maxPhases bound the structural counts a reader will
	// accept before allocating for them.
	maxBenches = 1 << 12
	maxPhases  = 1 << 16
	maxName    = 255
)

// crcTable is the CRC-64/ECMA table shared by writers and readers.
var crcTable = crc64.MakeTable(crc64.ECMA)

// Header is the decoded snapshot envelope, returned by Load/Read so
// tools can report what they verified.
type Header struct {
	Version    int
	ParamsHash uint64
	TraceLen   int
	Warmup     int
	Benchmarks int
	Phases     int
	Bytes      int64 // total snapshot size: header + payload
}

// ErrVersion is wrapped by load failures caused by a format version
// mismatch — the one error a caller may want to special-case (rebuild
// instead of report corruption).
var ErrVersion = errors.New("dbstore: snapshot format version mismatch")

// ErrStale is wrapped by load failures caused by a params-hash mismatch:
// the snapshot is internally consistent but was built from a different
// suite definition or with different build parameters than the binary
// reading it.
var ErrStale = errors.New("dbstore: snapshot built from different parameters")

// ParamsHash fingerprints everything the database's contents depend on:
// the build parameters (trace length, warmup) and, for every benchmark
// present, its name, phase count and — when the benchmark is part of the
// compiled-in suite — the full synthetic trace parameters of each phase.
// Two binaries whose suite definitions differ therefore disagree on the
// hash, and a snapshot saved by one is rejected by the other instead of
// silently serving stale records.
func ParamsHash(d *db.DB) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "qosrm/dbstore v%d trace=%d warmup=%d", Version, d.TraceLen, d.Warmup)
	for _, name := range sortedNames(d) {
		phases := len(d.Phases[name])
		fmt.Fprintf(h, "|%s/%d", name, phases)
		if b, err := bench.ByName(name); err == nil && len(b.Phases) == phases {
			for _, p := range b.Phases {
				fmt.Fprintf(h, ":%g%+v", p.Weight, p.Params)
			}
		}
	}
	return h.Sum64()
}

// sortedNames returns the database's benchmark names in canonical
// (sorted) order.
func sortedNames(d *db.DB) []string {
	names := d.Benchmarks()
	sort.Strings(names)
	return names
}

// Save writes the database to path as a snapshot. The write goes to a
// temporary sibling first and renames into place, so a crash mid-write
// never leaves a truncated snapshot behind for the next cold start.
func Save(path string, d *db.DB) error {
	if err := AtomicWrite(path, func(f *os.File) error { return Write(f, d) }); err != nil {
		return fmt.Errorf("dbstore: save: %w", err)
	}
	return nil
}

// AtomicWrite is the crash-safe file-replacement envelope every
// persistent artefact in this codebase uses (snapshots here, the job
// journal's compaction in internal/jobstore): write runs against a
// temporary sibling of path, which is fsynced, closed and renamed into
// place, followed by a best-effort directory sync so the rename itself
// is durable. A crash at any point leaves either the old file or the
// complete new one — never a truncated hybrid.
func AtomicWrite(path string, write func(*os.File) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	// Sync before the rename: without it, a power loss can persist the
	// rename but not the data, leaving an empty or partial file at path
	// — exactly the truncation the temp-and-rename dance exists to rule
	// out.
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	if dir, err := os.Open(filepath.Dir(path)); err == nil {
		dir.Sync()
		dir.Close()
	}
	return nil
}

// Checksum is the CRC-64/ECMA all persistent formats in this codebase
// frame their payloads with (the snapshot payload here, every journal
// record in internal/jobstore).
func Checksum(p []byte) uint64 { return crc64.Checksum(p, crcTable) }

// Write serialises the database to w in snapshot format.
func Write(w io.Writer, d *db.DB) error {
	payload, err := encodePayload(d)
	if err != nil {
		return err
	}
	var hdr [headerSize]byte
	copy(hdr[0:8], magic[:])
	binary.LittleEndian.PutUint32(hdr[8:12], Version)
	binary.LittleEndian.PutUint32(hdr[12:16], 0)
	binary.LittleEndian.PutUint64(hdr[16:24], ParamsHash(d))
	binary.LittleEndian.PutUint64(hdr[24:32], uint64(len(payload)))
	binary.LittleEndian.PutUint64(hdr[32:40], crc64.Checksum(payload, crcTable))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("dbstore: write header: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("dbstore: write payload: %w", err)
	}
	return nil
}

// encodePayload renders the canonical payload bytes.
func encodePayload(d *db.DB) ([]byte, error) {
	names := sortedNames(d)
	size := 4 + 4 + 4
	for _, name := range names {
		if len(name) == 0 || len(name) > maxName {
			return nil, fmt.Errorf("dbstore: benchmark name %q not serialisable", name)
		}
		size += 2 + len(name) + 4 + len(d.Phases[name])*phaseBytes
	}
	buf := make([]byte, 0, size)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(d.TraceLen))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(d.Warmup))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(names)))
	for _, name := range names {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(name)))
		buf = append(buf, name...)
		phases := len(d.Phases[name])
		buf = binary.LittleEndian.AppendUint32(buf, uint32(phases))
		for p := 0; p < phases; p++ {
			runs, err := d.Corners(name, p)
			if err != nil {
				return nil, fmt.Errorf("dbstore: %w", err)
			}
			for ci := range runs {
				for k := range runs[ci] {
					for wi := range runs[ci][k] {
						buf = putStats(buf, &runs[ci][k][wi])
					}
				}
			}
		}
	}
	return buf, nil
}

// putStats appends one record's floats in the fixed field order.
func putStats(buf []byte, s *db.Stats) []byte {
	f := func(v float64) {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	f(s.Instructions)
	f(s.TimeNs)
	f(s.BaseNs)
	f(s.BranchNs)
	f(s.CacheNs)
	f(s.MemNs)
	f(s.L1Misses)
	f(s.LLCAccesses)
	f(s.LLCHits)
	f(s.LLCMisses)
	f(s.DRAMLoads)
	f(s.Writebacks)
	f(s.LeadingMisses)
	f(s.Mispredicts)
	f(s.MLP)
	for wi := range s.ATDMissCurve {
		f(s.ATDMissCurve[wi])
	}
	for ci := range s.ATDLM {
		for wi := range s.ATDLM[ci] {
			f(s.ATDLM[ci][wi])
		}
	}
	return buf
}

// LoadOrBuild returns the database cached at path when it is a valid
// snapshot built with the trace length and warmup opts resolves to and
// covering every phase of benches. Otherwise it builds the database over
// benches and, when path is non-empty, saves the snapshot there. An
// empty path disables caching.
func LoadOrBuild(path string, benches []*bench.Benchmark, opts db.Options) (*db.DB, error) {
	if path != "" {
		want := opts.WithDefaults()
		if d, _, err := Load(path); err == nil &&
			d.TraceLen == want.TraceLen && d.Warmup == want.Warmup && d.Covers(benches) {
			return d, nil
		}
	}
	d, err := db.Build(benches, opts)
	if err != nil {
		return nil, err
	}
	if path != "" {
		if err := Save(path, d); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// Load reads and fully verifies a snapshot file.
func Load(path string) (*db.DB, *Header, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("dbstore: load: %w", err)
	}
	defer f.Close()
	d, h, err := Read(f)
	if err != nil {
		return nil, nil, fmt.Errorf("dbstore: load %s: %w", path, err)
	}
	return d, h, nil
}

// Read decodes a snapshot from r, verifying — in order — magic, format
// version, payload length, checksum, structural bounds and finally the
// params hash against this binary's suite definition. Every failure is a
// clean error; malformed input never panics or silently loads.
func Read(r io.Reader) (*db.DB, *Header, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, nil, fmt.Errorf("dbstore: header: %w", noEOF(err))
	}
	if [8]byte(hdr[0:8]) != magic {
		return nil, nil, errors.New("dbstore: not a qosrm snapshot (bad magic)")
	}
	if v := binary.LittleEndian.Uint32(hdr[8:12]); v != Version {
		return nil, nil, fmt.Errorf("%w: file v%d, binary v%d (rebuild with dbgen)", ErrVersion, v, Version)
	}
	payloadLen := binary.LittleEndian.Uint64(hdr[24:32])
	if payloadLen > maxPayload {
		return nil, nil, fmt.Errorf("dbstore: payload length %d exceeds limit", payloadLen)
	}
	// The extra byte past payloadLen distinguishes an exact-length
	// payload from one with trailing data, in both read paths below.
	var payload []byte
	if payloadLen < preallocPayload {
		buf := make([]byte, payloadLen+1)
		n, err := io.ReadFull(r, buf)
		if err != nil && err != io.ErrUnexpectedEOF && err != io.EOF {
			return nil, nil, fmt.Errorf("dbstore: payload: %w", err)
		}
		payload = buf[:n]
	} else {
		var err error
		payload, err = io.ReadAll(io.LimitReader(r, int64(payloadLen)+1))
		if err != nil {
			return nil, nil, fmt.Errorf("dbstore: payload: %w", err)
		}
	}
	if uint64(len(payload)) < payloadLen {
		return nil, nil, fmt.Errorf("dbstore: truncated payload: %d of %d bytes", len(payload), payloadLen)
	}
	if uint64(len(payload)) > payloadLen {
		return nil, nil, errors.New("dbstore: trailing data after payload")
	}
	if sum := crc64.Checksum(payload, crcTable); sum != binary.LittleEndian.Uint64(hdr[32:40]) {
		return nil, nil, errors.New("dbstore: checksum mismatch (corrupt snapshot)")
	}
	d, h, err := decodePayload(payload)
	if err != nil {
		return nil, nil, err
	}
	h.Version = Version
	h.ParamsHash = binary.LittleEndian.Uint64(hdr[16:24])
	h.Bytes = int64(headerSize + len(payload))
	if got := ParamsHash(d); got != h.ParamsHash {
		return nil, nil, fmt.Errorf("%w: file hash %#x, suite hash %#x (rebuild with dbgen)",
			ErrStale, h.ParamsHash, got)
	}
	return d, h, nil
}

// decodePayload parses the checksummed payload into a database.
func decodePayload(payload []byte) (*db.DB, *Header, error) {
	c := cursor{b: payload}
	traceLen := int(c.u32())
	warmup := int(c.u32())
	nb := int(c.u32())
	if c.err != nil {
		return nil, nil, c.err
	}
	if traceLen <= 0 || warmup < 0 {
		return nil, nil, fmt.Errorf("dbstore: invalid build parameters trace=%d warmup=%d", traceLen, warmup)
	}
	if nb <= 0 || nb > maxBenches {
		return nil, nil, fmt.Errorf("dbstore: benchmark count %d out of range", nb)
	}
	d := db.New(traceLen, warmup)
	h := &Header{TraceLen: traceLen, Warmup: warmup, Benchmarks: nb}
	prev := ""
	for i := 0; i < nb; i++ {
		name := c.str()
		np := int(c.u32())
		if c.err != nil {
			return nil, nil, c.err
		}
		if i > 0 && name <= prev {
			return nil, nil, fmt.Errorf("dbstore: benchmark %q out of canonical order", name)
		}
		prev = name
		if np <= 0 || np > maxPhases {
			return nil, nil, fmt.Errorf("dbstore: %s: phase count %d out of range", name, np)
		}
		if c.remaining() < np*phaseBytes {
			return nil, nil, fmt.Errorf("dbstore: %s: truncated phase data", name)
		}
		// The phase count is validated against the remaining payload
		// above, so batch-allocating all of the benchmark's phases here
		// cannot be baited into a large allocation by a forged count.
		for _, runs := range d.AddPhases(name, np) {
			for ci := range runs {
				for k := range runs[ci] {
					for wi := range runs[ci][k] {
						c.stats(&runs[ci][k][wi])
					}
				}
			}
		}
		h.Phases += np
	}
	if c.err != nil {
		return nil, nil, c.err
	}
	if c.remaining() != 0 {
		return nil, nil, fmt.Errorf("dbstore: %d unexpected trailing payload bytes", c.remaining())
	}
	return d, h, nil
}

// cursor is a bounds-checked little-endian reader over the payload. The
// first out-of-bounds read latches err and turns every subsequent read
// into a zero-value no-op, so decode loops stay simple.
type cursor struct {
	b   []byte
	off int
	err error
}

func (c *cursor) remaining() int { return len(c.b) - c.off }

func (c *cursor) take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if c.remaining() < n {
		c.err = fmt.Errorf("dbstore: truncated payload at offset %d", c.off)
		return nil
	}
	b := c.b[c.off : c.off+n]
	c.off += n
	return b
}

func (c *cursor) u16() uint16 {
	b := c.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (c *cursor) u32() uint32 {
	b := c.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (c *cursor) f64() float64 {
	b := c.take(8)
	if b == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

func (c *cursor) str() string {
	n := int(c.u16())
	if c.err != nil {
		return ""
	}
	if n == 0 || n > maxName {
		c.err = fmt.Errorf("dbstore: name length %d out of range", n)
		return ""
	}
	return string(c.take(n))
}

// stats fills one record in the same field order putStats wrote it.
func (c *cursor) stats(s *db.Stats) {
	s.Instructions = c.f64()
	s.TimeNs = c.f64()
	s.BaseNs = c.f64()
	s.BranchNs = c.f64()
	s.CacheNs = c.f64()
	s.MemNs = c.f64()
	s.L1Misses = c.f64()
	s.LLCAccesses = c.f64()
	s.LLCHits = c.f64()
	s.LLCMisses = c.f64()
	s.DRAMLoads = c.f64()
	s.Writebacks = c.f64()
	s.LeadingMisses = c.f64()
	s.Mispredicts = c.f64()
	s.MLP = c.f64()
	for wi := range s.ATDMissCurve {
		s.ATDMissCurve[wi] = c.f64()
	}
	for ci := range s.ATDLM {
		for wi := range s.ATDLM[ci] {
			s.ATDLM[ci][wi] = c.f64()
		}
	}
}

// noEOF maps a bare EOF on a required read to ErrUnexpectedEOF so the
// caller's message says "truncated" rather than "EOF".
func noEOF(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}
