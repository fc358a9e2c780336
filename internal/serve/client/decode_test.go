package client

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
	"time"

	"fudj/internal/cluster"
	"fudj/internal/core"
	"fudj/internal/engine"
	"fudj/internal/sched"
	"fudj/internal/serve"
	"fudj/internal/types"
	"fudj/internal/wire"
)

// resealFrames rewrites the CRC of every complete frame in stream, so
// the fuzzer's payload mutations reach the JSON and record decoders
// instead of dying at the checksum.
func resealFrames(stream []byte) {
	for off := 0; off+wire.FrameHeaderSize <= len(stream); {
		end := off + wire.FrameHeaderSize + int(binary.LittleEndian.Uint32(stream[off+1:off+5]))
		if end > len(stream) || end < off {
			return
		}
		sum := crc32.Update(crc32.ChecksumIEEE(stream[off:off+1]), crc32.IEEETable, stream[off+wire.FrameHeaderSize:end])
		binary.LittleEndian.PutUint32(stream[off+5:off+9], sum)
		off = end
	}
}

// FuzzDecodeResponse feeds arbitrary response streams to the client's
// decoder. It must never panic; every error must be one a caller can
// classify (a transport error, a corrupt frame, or a decoded envelope);
// and a result must carry a schema and exactly the trailer's rows.
func FuzzDecodeResponse(f *testing.F) {
	schema := types.NewSchema(types.Field{Name: "id", Kind: types.KindInt64}, types.Field{Name: "name", Kind: types.KindString})
	rows := []types.Record{
		{types.NewInt64(1), types.NewString("a")},
		{types.NewInt64(2), types.NewString("b")},
	}
	var ok []byte
	ok = append(ok, serve.EncodeSchemaFrame(schema)...)
	ok = append(ok, serve.EncodeBatchFrames(rows)...)
	ok = append(ok, serve.EncodeTrailerFrame(serve.Trailer{Rows: len(rows), ElapsedNs: 1000, Plan: "scan"})...)
	shed := serve.EncodeErrorFrame(serve.EncodeError(&sched.AdmissionError{Reason: sched.ReasonQueueFull}, 20*time.Millisecond))
	f.Add(ok, false)
	f.Add(ok, true)
	f.Add(shed, true)
	f.Add(ok[:len(ok)/2], false)

	f.Fuzz(func(t *testing.T, stream []byte, reseal bool) {
		if reseal {
			resealFrames(stream)
		}
		res, err := decodeResponse(bytes.NewReader(stream))
		if err != nil {
			if res != nil {
				t.Fatal("result and error both returned")
			}
			switch err.(type) {
			case *serve.TransportError, *serve.CorruptFrameError, // the stream itself
				*serve.ShedError, *engine.TimeoutError, *cluster.BarrierLossError, // DecodeError's taxonomy
				*core.ResourceError, *core.UDFError, *cluster.FaultError,
				*serve.InstanceMismatchError, *serve.RemoteError:
			default:
				t.Fatalf("unclassified error %T: %v", err, err)
			}
			return
		}
		if res.Schema == nil {
			t.Fatal("result without a schema")
		}
		fr := serve.NewFrameReader(bytes.NewReader(stream))
		for {
			typ, payload, err := fr.Next()
			if err != nil {
				t.Fatalf("decoded a result from a stream with no trailer: %v", err)
			}
			if typ == serve.FrameTrailer {
				tr, err := serve.DecodeTrailerFrame(payload)
				if err != nil || tr.Rows != len(res.Rows) {
					t.Fatalf("result has %d rows, trailer %+v (%v)", len(res.Rows), tr.Rows, err)
				}
				return
			}
		}
	})
}
