package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// The frame is the one length-prefixed unit every byte stream in the
// repo is cut into — served responses, spill runs, checkpoints:
//
//	offset 0    tag (1 byte; its meaning belongs to the surface)
//	offset 1-4  payload length, uint32 little-endian
//	offset 5-8  CRC32 (IEEE) of tag‖payload, uint32 little-endian
//	offset 9-   payload
//
// This file is the only place that writes or parses that header.

// FrameHeaderSize is the fixed prefix of every frame.
const FrameHeaderSize = 9

// CorruptFrameError reports a frame that failed an integrity check: a
// claimed length above the reader's limit, or a CRC mismatch.
type CorruptFrameError struct {
	Tag    byte
	Length int64
	Reason string
}

// Error implements the error interface.
func (e *CorruptFrameError) Error() string {
	return fmt.Sprintf("wire: corrupt frame (tag %d, length %d): %s", e.Tag, e.Length, e.Reason)
}

// frameCRC checksums tag‖payload; tag is the one-byte slice holding it.
func frameCRC(tag, payload []byte) uint32 {
	return crc32.Update(crc32.ChecksumIEEE(tag), crc32.IEEETable, payload)
}

// AppendFrame appends one encoded frame to dst and returns it.
func AppendFrame(dst []byte, tag byte, payload []byte) []byte {
	dst = slices.Grow(dst, FrameHeaderSize+len(payload))
	dst = append(dst, tag)
	sum := frameCRC(dst[len(dst)-1:], payload)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, sum)
	return append(dst, payload...)
}

// FrameReader decodes a frame stream, verifying each frame's CRC.
type FrameReader struct {
	r     io.Reader
	limit int64
}

// NewFrameReader reads frames from r. limit bounds any single payload
// (a protocol maximum, or the size of the file being read), so a
// damaged length errors before the payload is allocated.
func NewFrameReader(r io.Reader, limit int64) *FrameReader {
	return &FrameReader{r: r, limit: limit}
}

// Next reads one frame. io.EOF is returned only on a frame boundary;
// a stream that ends inside a frame is io.ErrUnexpectedEOF; an
// oversized length or a CRC mismatch is a *CorruptFrameError. The
// payload is freshly allocated and owned by the caller.
func (fr *FrameReader) Next() (tag byte, payload []byte, err error) {
	var hdr [FrameHeaderSize]byte
	if _, err := io.ReadFull(fr.r, hdr[:]); err != nil {
		// io.EOF: not one byte of a next frame; io.ErrUnexpectedEOF:
		// the stream ended inside the header.
		return 0, nil, err
	}
	tag = hdr[0]
	length := int64(binary.LittleEndian.Uint32(hdr[1:5]))
	if length > fr.limit {
		return 0, nil, &CorruptFrameError{Tag: tag, Length: length, Reason: "payload length exceeds limit"}
	}
	payload = make([]byte, length)
	if _, err := io.ReadFull(fr.r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	if frameCRC(hdr[:1], payload) != binary.LittleEndian.Uint32(hdr[5:9]) {
		return 0, nil, &CorruptFrameError{Tag: tag, Length: length, Reason: "CRC mismatch"}
	}
	return tag, payload, nil
}
