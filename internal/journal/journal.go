// Package journal is an append-only, crash-safe record log — the
// durability layer under the certification service's job registry. The
// service appends every job state transition; after a crash, replaying
// the journal reconstructs the registry and the queue.
//
// Layout: a directory of numbered segment files (wal-00000001.log, …).
// Each record is framed as
//
//	[4-byte little-endian payload length][4-byte CRC-32C of payload][payload]
//
// Appends go to the highest-numbered segment; when it exceeds the
// segment size a new one is started. A crash can tear only the tail of
// the last segment (writes are sequential appends), so replay accepts a
// torn or CRC-corrupt tail there — truncating the segment back to its
// last whole record — while the same damage in an earlier segment is
// reported as corruption.
//
// By default every append is fsynced before it returns (a record the
// caller saw succeed survives power loss). NoSync trades that guarantee
// for throughput — the torn-tail handling still keeps replay safe.
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"superpose/internal/failpoint"
)

// Options configures a Journal.
type Options struct {
	// SegmentBytes starts a new segment once the active one exceeds this
	// size (default 4 MiB).
	SegmentBytes int64
	// NoSync skips the per-append fsync.
	NoSync bool
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	return o
}

// ErrCorrupt reports damage replay cannot attribute to a torn tail: a
// bad record in any segment but the last, or mid-segment damage
// followed by readable data.
var ErrCorrupt = errors.New("journal: corrupt record")

const (
	headerSize = 8
	// maxRecord guards replay against reading an absurd length out of a
	// corrupt header.
	maxRecord = 16 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// frameHeader builds the header that frames payload on disk and on the
// wire: its length, then its CRC-32C, both little-endian.
func frameHeader(payload []byte) [headerSize]byte {
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
	return hdr
}

// Journal is an open, appendable record log. Safe for concurrent use.
type Journal struct {
	dir  string
	opts Options

	mu   sync.Mutex
	f    *os.File
	size int64
	seq  int // number of the active segment
}

// Open replays the journal at dir (creating it if needed), truncates a
// torn tail, and returns the journal opened for appends plus every
// surviving record in order.
func Open(dir string, opts Options) (*Journal, [][]byte, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	segs, err := segments(dir)
	if err != nil {
		return nil, nil, err
	}

	var records [][]byte
	maxSeq := 0
	for i, seg := range segs {
		recs, err := replaySegment(filepath.Join(dir, seg.name), i == len(segs)-1)
		if err != nil {
			return nil, nil, fmt.Errorf("journal: segment %s: %w", seg.name, err)
		}
		records = append(records, recs...)
		maxSeq = seg.seq
	}

	j := &Journal{dir: dir, opts: opts, seq: maxSeq}
	if len(segs) > 0 {
		// Append to the (possibly truncated) last segment.
		name := filepath.Join(dir, segs[len(segs)-1].name)
		f, err := os.OpenFile(name, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, nil, err
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, nil, err
		}
		j.f, j.size = f, st.Size()
	} else if err := j.rotate(); err != nil {
		return nil, nil, err
	}
	return j, records, nil
}

// Append writes one record and (unless NoSync) fsyncs it.
func (j *Journal) Append(payload []byte) error {
	if len(payload) > maxRecord {
		return fmt.Errorf("journal: record of %d bytes exceeds the %d limit", len(payload), maxRecord)
	}
	if err := failpoint.Inject("journal/append"); err != nil {
		return err
	}
	hdr := frameHeader(payload)

	j.mu.Lock()
	defer j.mu.Unlock()
	return j.append(hdr, payload)
}

// append writes one framed record; the caller holds the lock.
func (j *Journal) append(hdr [headerSize]byte, payload []byte) error {
	if j.f == nil {
		return errors.New("journal: closed")
	}
	if _, err := j.f.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := j.f.Write(payload); err != nil {
		return err
	}
	j.size += int64(headerSize + len(payload))
	if err := failpoint.Inject("journal/fsync"); err != nil {
		return err
	}
	if !j.opts.NoSync {
		if err := j.f.Sync(); err != nil {
			return err
		}
	}
	if j.size >= j.opts.SegmentBytes {
		return j.rotate()
	}
	return nil
}

// Reset compacts the journal: the given records are written into a
// fresh segment and every older segment is removed. Used after recovery
// so replayed history does not accumulate across restarts. A crash
// mid-Reset leaves both old and new segments; replay then observes old
// records before their compacted duplicates, which is safe for any
// last-record-wins consumer.
func (j *Journal) Reset(records [][]byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.rotate(); err != nil {
		return err
	}
	keepSeq := j.seq
	for _, rec := range records {
		if err := j.append(frameHeader(rec), rec); err != nil {
			return err
		}
	}
	if !j.opts.NoSync && j.f != nil {
		if err := j.f.Sync(); err != nil {
			return err
		}
	}
	segs, err := segments(j.dir)
	if err != nil {
		return err
	}
	for _, seg := range segs {
		if seg.seq < keepSeq {
			if err := os.Remove(filepath.Join(j.dir, seg.name)); err != nil {
				return err
			}
		}
	}
	return nil
}

// Sync flushes the active segment to disk.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	return j.f.Sync()
}

// Close syncs and closes the journal. Further appends fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Sync()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	return err
}

// rotate closes the active segment and starts the next one.
func (j *Journal) rotate() error {
	if j.f != nil {
		if err := j.f.Sync(); err != nil {
			return err
		}
		if err := j.f.Close(); err != nil {
			return err
		}
	}
	j.seq++
	f, err := os.OpenFile(filepath.Join(j.dir, segmentName(j.seq)),
		os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	j.f, j.size = f, 0
	return nil
}

func segmentName(seq int) string { return fmt.Sprintf("wal-%08d.log", seq) }

type segment struct {
	name string
	seq  int
}

// segments lists the journal's segment files in replay order.
func segments(dir string) ([]segment, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []segment
	for _, e := range entries {
		var seq int
		if n, _ := fmt.Sscanf(e.Name(), "wal-%08d.log", &seq); n == 1 {
			segs = append(segs, segment{name: e.Name(), seq: seq})
		}
	}
	sort.Slice(segs, func(i, k int) bool { return segs[i].seq < segs[k].seq })
	return segs, nil
}

// replaySegment reads every whole record of one segment through
// ReadFrame. In the last segment a torn or corrupt tail is truncated
// away; anywhere else it is ErrCorrupt.
func replaySegment(path string, last bool) ([][]byte, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	var records [][]byte
	var good int64 // offset just past the last whole, checksummed record
	for {
		payload, err := ReadFrame(f)
		switch {
		case err == nil:
		case err == io.EOF:
			return records, nil // clean end of segment
		case err == io.ErrUnexpectedEOF:
			err = fmt.Errorf("%w: torn record", ErrCorrupt)
			fallthrough
		case errors.Is(err, ErrCorrupt):
			if !last {
				return nil, fmt.Errorf("%w (mid-journal)", err)
			}
			if err := f.Truncate(good); err != nil {
				return nil, err
			}
			if err := f.Sync(); err != nil {
				return nil, err
			}
			return records, nil
		default:
			return nil, err
		}
		if payload == nil {
			// ReadFrame's heartbeat is an empty record in a segment.
			payload = []byte{}
		}
		records = append(records, payload)
		good += int64(headerSize + len(payload))
	}
}
