package journal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// frameSeeds are fuzz corpus seeds: whole frames, a heartbeat, and the
// tail damage replay must tell apart.
func frameSeeds(f *testing.F) {
	frame := func(payload []byte) []byte {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, payload); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	good := frame([]byte("good-1"))
	f.Add([]byte{})
	f.Add(good)
	f.Add(frame(nil))
	f.Add(append(append([]byte{}, good...), frame([]byte(`{"seq":2}`))...))
	f.Add(append(append([]byte{}, good...), 0x03, 0x00))
	f.Add(append(append([]byte{}, good...), 0x10, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 'p'))
	f.Add(append(append([]byte{}, good...), 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0))
	f.Add(append(append([]byte{}, good...), 0x02, 0, 0, 0, 1, 2, 3, 4, 'z', 'z'))
	f.Add(append(frame(nil), good...))
}

// FuzzReadFrame requires ReadFrame never to panic, to re-encode every
// frame it accepts through WriteFrame to exactly the bytes it consumed,
// to report io.EOF only at a clean frame boundary, and to fail only with
// io.EOF, io.ErrUnexpectedEOF or a wrapped ErrCorrupt.
func FuzzReadFrame(f *testing.F) {
	frameSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			start := len(data) - r.Len()
			payload, err := ReadFrame(r)
			consumed := data[start : len(data)-r.Len()]
			switch {
			case err == nil:
			case err == io.EOF:
				if len(consumed) != 0 {
					t.Fatalf("io.EOF after consuming %d bytes of a frame", len(consumed))
				}
				return
			case err == io.ErrUnexpectedEOF, errors.Is(err, ErrCorrupt):
				return
			default:
				t.Fatalf("ReadFrame error %v is neither EOF nor ErrCorrupt", err)
			}
			var buf bytes.Buffer
			if err := WriteFrame(&buf, payload); err != nil {
				t.Fatalf("re-encoding an accepted frame: %v", err)
			}
			if !bytes.Equal(buf.Bytes(), consumed) {
				t.Fatalf("accepted frame re-encodes to %x, consumed %x", buf.Bytes(), consumed)
			}
		}
	})
}

// replayOracle is the segment replay loop with its own frame decoder,
// as replaySegment read segments before it decoded through ReadFrame:
// the whole records, the offset just past the last of them, and whether
// the segment has a torn or corrupt tail there.
func replayOracle(data []byte) (records [][]byte, good int64, damaged bool) {
	r := bytes.NewReader(data)
	for {
		var hdr [headerSize]byte
		switch _, err := io.ReadFull(r, hdr[:]); err {
		case nil:
		case io.EOF:
			return records, good, false
		default:
			return records, good, true
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if n > maxRecord {
			return records, good, true
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			return records, good, true
		}
		if crc32.Checksum(payload, crcTable) != sum {
			return records, good, true
		}
		records = append(records, payload)
		good += int64(headerSize) + int64(n)
	}
}

// FuzzReplaySegment replays arbitrary bytes as the last segment and as
// a mid-journal one, holding replayOracle as the reference: the last
// segment yields the oracle's records and is truncated to its last whole
// record, and reopening it returns the same records and cuts nothing
// more; a mid-journal segment is ErrCorrupt exactly when the oracle
// finds damage, is never truncated, and otherwise yields the records.
func FuzzReplaySegment(f *testing.F) {
	frameSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		want, good, damaged := replayOracle(data)
		size := int64(len(data))
		if damaged {
			size = good
		}
		path := filepath.Join(t.TempDir(), segmentName(1))
		replay := func(last bool) ([][]byte, error) {
			t.Helper()
			recs, err := replaySegment(path, last)
			st, serr := os.Stat(path)
			if serr != nil {
				t.Fatal(serr)
			}
			if last && st.Size() != size {
				t.Fatalf("last segment is %d bytes after replay, want %d", st.Size(), size)
			}
			if !last && st.Size() != int64(len(data)) {
				t.Fatalf("mid-journal segment truncated to %d of %d bytes", st.Size(), len(data))
			}
			return recs, err
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}

		recs, err := replay(false)
		if damaged != errors.Is(err, ErrCorrupt) {
			t.Fatalf("mid-journal replay error %v, oracle damaged=%v", err, damaged)
		}
		if !damaged && (err != nil || !reflect.DeepEqual(recs, want)) {
			t.Fatalf("mid-journal replay = %q, %v; oracle %q", recs, err, want)
		}

		for pass := 0; pass < 2; pass++ { // replay, then reopen the truncated file
			recs, err := replay(true)
			if err != nil || !reflect.DeepEqual(recs, want) {
				t.Fatalf("last-segment replay %d = %q, %v; oracle %q", pass, recs, err, want)
			}
		}
	})
}
