package journal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// Frame codec for streaming journal records over a byte pipe (the HA
// replication stream). The wire format is identical to the on-disk
// segment framing:
//
//	[4-byte little-endian payload length][4-byte CRC-32C of payload][payload]
//
// so a follower can verify integrity with the same checksum the journal
// itself uses. A zero-length frame is a heartbeat: it carries no record
// and only proves the stream is alive.

// WriteFrame writes one framed record to w. An empty payload is the
// stream heartbeat.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > maxRecord {
		return fmt.Errorf("journal: frame of %d bytes exceeds the %d limit", len(payload), maxRecord)
	}
	hdr := frameHeader(payload)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one framed record from r. It returns (nil, nil) for a
// heartbeat frame, io.EOF at a clean frame boundary, and ErrCorrupt
// (wrapped) on a length or checksum violation. A tear mid-frame is
// io.ErrUnexpectedEOF.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	sum := binary.LittleEndian.Uint32(hdr[4:8])
	if n > maxRecord {
		return nil, fmt.Errorf("%w: implausible frame length %d", ErrCorrupt, n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	if crc32.Checksum(payload, crcTable) != sum {
		return nil, fmt.Errorf("%w: frame checksum mismatch", ErrCorrupt)
	}
	if n == 0 {
		return nil, nil // heartbeat
	}
	return payload, nil
}
