// Package jobstore is the durable job journal behind the qosrmd
// serving layer: an append-only, CRC-framed event log that survives a
// SIGKILL (or any crash) at an arbitrary byte boundary and replays
// cleanly on the next boot, so an accepted sweep job is never lost and
// a finished report never has to be recomputed.
//
// The file reuses the dbstore envelope idiom — a fixed magic/version
// header, a checksum on every byte that matters, and atomic
// rename-into-place for whole-file rewrites:
//
//	header (16 bytes)
//	  magic    [8]byte  "QOSRMJNL"
//	  version  uint32   format version (Version)
//	  reserved uint32   zero
//	records, back to back
//	  length   uint32   payload bytes (bounded by maxRecord)
//	  checksum uint64   CRC-64/ECMA of the payload
//	  payload  []byte   one JSON-encoded Event
//
// Appends are a single buffered write followed by an fsync, so a
// record either lands completely or is a torn tail. Open scans the
// file record by record and stops at the first frame that is short,
// over-long or fails its checksum: everything before it replays,
// everything from it on is truncated away (a torn final record is the
// signature of a crash mid-append, whose submitter never got an
// acknowledgement — dropping it is correct, not lossy). Corruption in
// the header, by contrast, is an error: the header is written once and
// synced before any record, so a bad header means the file is not a
// journal at all.
//
// Compact rewrites the journal to just the live events (dead records
// accumulate as finished jobs expire) via the same write-temp, fsync,
// rename dance dbstore.Save uses, so a crash mid-compaction leaves the
// previous journal intact.
//
// The faultinject hooks "jobstore.append" and "jobstore.compact" let
// the chaos tests tear writes and fail rotations on demand; an append
// that fails part-way truncates back to the last durable record before
// returning, so a later append can never bury a torn frame mid-file.
package jobstore

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"qosrm/internal/dbstore"
	"qosrm/internal/faultinject"
	"qosrm/internal/scenario"
)

// Version is the journal format version; bump on any change to the
// header, the frame layout or the Event schema.
const Version = 1

// magic identifies a qosrm job journal.
var magic = [8]byte{'Q', 'O', 'S', 'R', 'M', 'J', 'N', 'L'}

const (
	headerSize = 16
	frameSize  = 12 // length uint32 + checksum uint64

	// maxRecord bounds one record's payload; a frame claiming more is
	// corruption, not a big record.
	maxRecord = 1 << 28
)

// ErrVersion is wrapped by Open failures caused by a format version
// mismatch.
var ErrVersion = errors.New("jobstore: journal format version mismatch")

// Event types, in job lifecycle order.
const (
	// EventSubmit records an accepted job: its id, idempotency key and
	// the full spec batch. Journaled before the submission is
	// acknowledged, so an acked job is always recoverable.
	EventSubmit = "submit"
	// EventStart records a worker picking one scenario up. Purely
	// observational: a started-but-unfinished scenario replays as
	// pending, exactly like a never-started one.
	EventStart = "start"
	// EventFinish records one scenario's outcome — the report (or
	// error) a restarted server serves without recomputing.
	EventFinish = "finish"
	// EventExpire records a finished job aged out by the server's TTL
	// GC; replay drops the job. Compaction erases both.
	EventExpire = "expire"
)

// Event is one journal record. Exactly one of the type-specific field
// groups is populated, keyed by Type.
type Event struct {
	Type string `json:"type"`
	Job  string `json:"job"`
	// Key is the submit's idempotency key (EventSubmit, optional).
	Key string `json:"key,omitempty"`
	// Specs is the submitted batch (EventSubmit).
	Specs []scenario.Spec `json:"specs,omitempty"`
	// Index is the scenario within the job (EventStart/EventFinish).
	Index int `json:"index,omitempty"`
	// Report is the scenario's outcome (EventFinish, nil on failure).
	Report *scenario.Report `json:"report,omitempty"`
	// Error is the scenario's failure (EventFinish, empty on success).
	Error string `json:"error,omitempty"`
}

// LoadInfo reports what Open recovered.
type LoadInfo struct {
	// Events are the replayable records, in append order.
	Events []Event
	// TruncatedBytes is the size of the torn or corrupt tail Open cut
	// off (0 for a clean journal).
	TruncatedBytes int64
}

// Journal is an open job journal. All methods are safe for concurrent
// use; appends are serialised and individually fsynced.
type Journal struct {
	mu      sync.Mutex
	path    string
	f       *os.File
	off     int64 // end of the last durable record
	records int   // records on disk (replayed + appended)
	broken  error // latched unrecoverable write failure
}

// Open opens (or creates) the journal at path and replays its records.
// A torn or corrupt tail is truncated away and reported in LoadInfo;
// a corrupt header or unreadable file is an error.
func Open(path string) (*Journal, *LoadInfo, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("jobstore: open: %w", err)
	}
	j := &Journal{path: path, f: f}
	info, err := j.load()
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return j, info, nil
}

// load validates the header (writing one into an empty file), replays
// the records and truncates any torn tail.
func (j *Journal) load() (*LoadInfo, error) {
	st, err := j.f.Stat()
	if err != nil {
		return nil, fmt.Errorf("jobstore: %w", err)
	}
	if st.Size() == 0 {
		var hdr [headerSize]byte
		copy(hdr[0:8], magic[:])
		binary.LittleEndian.PutUint32(hdr[8:12], Version)
		if _, err := j.f.Write(hdr[:]); err != nil {
			return nil, fmt.Errorf("jobstore: write header: %w", err)
		}
		if err := j.f.Sync(); err != nil {
			return nil, fmt.Errorf("jobstore: sync header: %w", err)
		}
		j.off = headerSize
		return &LoadInfo{}, nil
	}
	var hdr [headerSize]byte
	if _, err := io.ReadFull(j.f, hdr[:]); err != nil {
		return nil, fmt.Errorf("jobstore: %s: header: %w", j.path, err)
	}
	if [8]byte(hdr[0:8]) != magic {
		return nil, fmt.Errorf("jobstore: %s is not a qosrm job journal (bad magic)", j.path)
	}
	if v := binary.LittleEndian.Uint32(hdr[8:12]); v != Version {
		return nil, fmt.Errorf("%w: file v%d, binary v%d", ErrVersion, v, Version)
	}

	info := &LoadInfo{}
	data, err := io.ReadAll(j.f)
	if err != nil {
		return nil, fmt.Errorf("jobstore: %s: %w", j.path, err)
	}
	off := 0
	for off < len(data) {
		rest := data[off:]
		if len(rest) < frameSize {
			break // torn frame header
		}
		n := int(binary.LittleEndian.Uint32(rest[0:4]))
		if n <= 0 || n > maxRecord || len(rest) < frameSize+n {
			break // corrupt length or torn payload
		}
		payload := rest[frameSize : frameSize+n]
		if dbstore.Checksum(payload) != binary.LittleEndian.Uint64(rest[4:12]) {
			break // corrupt payload
		}
		var ev Event
		if err := json.Unmarshal(payload, &ev); err != nil {
			break // framed but undecodable: treat as corruption
		}
		info.Events = append(info.Events, ev)
		off += frameSize + n
		j.records++
	}
	j.off = headerSize + int64(off)
	info.TruncatedBytes = st.Size() - j.off
	if info.TruncatedBytes > 0 {
		// Cut the torn tail so future appends continue from the last
		// durable record instead of burying garbage mid-file.
		if err := j.f.Truncate(j.off); err != nil {
			return nil, fmt.Errorf("jobstore: %s: truncate torn tail: %w", j.path, err)
		}
	}
	if _, err := j.f.Seek(j.off, io.SeekStart); err != nil {
		return nil, fmt.Errorf("jobstore: %s: %w", j.path, err)
	}
	return info, nil
}

// Append journals one event durably: the record is framed, written and
// fsynced before Append returns. A failed or torn write is rolled back
// by truncating to the previous record boundary; if even the rollback
// fails the journal latches broken and every later Append errors.
func (j *Journal) Append(ev Event) error {
	payload, err := json.Marshal(ev)
	if err != nil {
		return fmt.Errorf("jobstore: append: %w", err)
	}
	if len(payload) > maxRecord {
		return fmt.Errorf("jobstore: append: record of %d bytes exceeds limit", len(payload))
	}
	frame := make([]byte, frameSize+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint64(frame[4:12], dbstore.Checksum(payload))
	copy(frame[frameSize:], payload)

	j.mu.Lock()
	defer j.mu.Unlock()
	if j.broken != nil {
		return j.broken
	}
	if err := faultinject.Eval("jobstore.append"); err != nil {
		// Emulate the torn write a crash mid-append leaves behind, then
		// recover exactly as a real partial write would.
		j.f.Write(frame[:len(frame)/2])
		return j.rollback(err)
	}
	if _, err := j.f.Write(frame); err != nil {
		return j.rollback(err)
	}
	if err := j.f.Sync(); err != nil {
		return j.rollback(err)
	}
	j.off += int64(len(frame))
	j.records++
	return nil
}

// rollback restores the on-disk journal to the last durable record
// after a failed append; it must be called with the mutex held.
func (j *Journal) rollback(cause error) error {
	if err := j.f.Truncate(j.off); err != nil {
		j.broken = fmt.Errorf("jobstore: journal unusable after failed rollback: %v (append failed: %w)", err, cause)
		return j.broken
	}
	if _, err := j.f.Seek(j.off, io.SeekStart); err != nil {
		j.broken = fmt.Errorf("jobstore: journal unusable after failed rollback: %v (append failed: %w)", err, cause)
		return j.broken
	}
	return fmt.Errorf("jobstore: append: %w", cause)
}

// Compact atomically rewrites the journal to exactly events (the
// caller's live set), dropping every dead record. The previous journal
// stays intact until the replacement is durably in place.
func (j *Journal) Compact(events []Event) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.broken != nil {
		return j.broken
	}
	if err := faultinject.Eval("jobstore.compact"); err != nil {
		return fmt.Errorf("jobstore: compact: %w", err)
	}
	err := dbstore.AtomicWrite(j.path, func(f *os.File) error {
		var hdr [headerSize]byte
		copy(hdr[0:8], magic[:])
		binary.LittleEndian.PutUint32(hdr[8:12], Version)
		if _, err := f.Write(hdr[:]); err != nil {
			return err
		}
		for i := range events {
			payload, err := json.Marshal(&events[i])
			if err != nil {
				return err
			}
			var frame [frameSize]byte
			binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
			binary.LittleEndian.PutUint64(frame[4:12], dbstore.Checksum(payload))
			if _, err := f.Write(frame[:]); err != nil {
				return err
			}
			if _, err := f.Write(payload); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("jobstore: compact: %w", err)
	}
	// The rename replaced the inode under the old handle: reopen at the
	// new file's end so appends continue into the compacted journal.
	f, err := os.OpenFile(j.path, os.O_RDWR, 0o644)
	if err != nil {
		j.broken = fmt.Errorf("jobstore: reopen after compact: %w", err)
		return j.broken
	}
	off, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		f.Close()
		j.broken = fmt.Errorf("jobstore: reopen after compact: %w", err)
		return j.broken
	}
	j.f.Close()
	j.f, j.off, j.records = f, off, len(events)
	return nil
}

// Records reports how many durable records the journal holds.
func (j *Journal) Records() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.records
}

// Size reports the journal's durable size in bytes.
func (j *Journal) Size() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.off
}

// Close closes the journal file. Appends after Close fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.broken == nil {
		j.broken = errors.New("jobstore: journal closed")
	}
	return j.f.Close()
}
