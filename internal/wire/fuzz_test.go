package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"testing"
)

// Fuzz targets for the bytes a server or client reads off the network:
// decoding must never panic, never consume past the frame its header
// announces (nor past MaxFrame), agree with FrameReady on whether a frame
// was complete, and round-trip through the encoder.

// frameOf prefixes payload with its length header.
func frameOf(payload []byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...)
}

// seedFrames adds each frame to f, plus every frame cut short by one byte,
// a header-only prefix, and an oversized length prefix.
func seedFrames(f *testing.F, frames [][]byte) {
	for _, fr := range frames {
		f.Add(fr)
		f.Add(fr[:len(fr)-1])
		f.Add(fr[:2])
	}
	f.Add(binary.BigEndian.AppendUint32(nil, MaxFrame+1))
	f.Add(append(binary.BigEndian.AppendUint32(nil, 1<<31), 1, 2, 3))
	f.Add([]byte{})
}

// checkFrameRead reads one frame's worth from data with read, after
// buffering all of data, and checks the framing invariants every decoder
// shares. It reports whether read succeeded.
func checkFrameRead(t *testing.T, data []byte, read func(*bufio.Reader) error) bool {
	br := bufio.NewReaderSize(bytes.NewReader(data), len(data)+16)
	_, _ = br.Peek(len(data)) // buffer everything, so FrameReady sees it all
	ready := FrameReady(br)
	var n uint32
	complete := false
	if len(data) >= 4 {
		n = binary.BigEndian.Uint32(data)
		complete = n > MaxFrame || uint64(len(data)) >= 4+uint64(n)
	}
	if ready != complete {
		t.Fatalf("FrameReady = %v for %d buffered bytes announcing %d", ready, len(data), n)
	}
	err := read(br)
	consumed := len(data) - br.Buffered()
	if consumed > 4+MaxFrame {
		t.Fatalf("consumed %d bytes, past MaxFrame", consumed)
	}
	if err == nil && consumed != 4+int(n) {
		t.Fatalf("decoded a frame announcing %d bytes but consumed %d", n, consumed)
	}
	if err == nil && !ready {
		t.Fatal("decoded a frame FrameReady called incomplete")
	}
	return err == nil
}

func FuzzReadRequest(f *testing.F) {
	var frames [][]byte
	for _, req := range []Request{
		{Op: OpGet, Key: []byte("k")},
		{Op: OpPut, Key: []byte("key"), Value: []byte("value")},
		{Op: OpPut, Key: []byte("key"), Value: []byte("value"), Flags: FlagAckApply},
		{Op: OpDelete, Key: []byte("gone"), Flags: FlagAckDurable},
		{Op: OpPersist},
		{Op: OpStats},
		{Op: OpTrace},
		{Op: OpSplit, Shard: SplitAuto},
		{Op: OpMerge, Shard: 1},
		{Op: OpEvents},
	} {
		payload, err := EncodeRequest(req)
		if err != nil {
			f.Fatal(err)
		}
		frames = append(frames, frameOf(payload))
	}
	frames = append(frames, frameOf([]byte{0x7f}))
	seedFrames(f, frames)

	f.Fuzz(func(t *testing.T, data []byte) {
		var req Request
		if !checkFrameRead(t, data, func(br *bufio.Reader) (err error) {
			req, err = ReadRequest(br)
			return err
		}) {
			return
		}
		var buf bytes.Buffer
		if err := WriteRequest(&buf, req); err != nil {
			t.Fatalf("re-encode %+v: %v", req, err)
		}
		again, err := ReadRequest(bufio.NewReader(&buf))
		if err != nil {
			t.Fatalf("decode of re-encoded %+v: %v", req, err)
		}
		if again.Op != req.Op || !bytes.Equal(again.Key, req.Key) || !bytes.Equal(again.Value, req.Value) ||
			again.Flags != req.Flags || again.Shard != req.Shard {
			t.Fatalf("round trip: %+v became %+v", req, again)
		}
	})
}

func FuzzReadResponse(f *testing.F) {
	var frames [][]byte
	for _, resp := range []Response{
		{Status: StatusOK, Body: []byte("value")},
		{Status: StatusOK, Body: EpochBody(712)},
		{Status: StatusNotFound},
		{Status: StatusError, Body: []byte("boom")},
		{Status: StatusBusy, Body: []byte("busy")},
	} {
		var buf bytes.Buffer
		bw := bufio.NewWriter(&buf)
		if err := WriteResponse(bw, resp); err != nil {
			f.Fatal(err)
		}
		if err := bw.Flush(); err != nil {
			f.Fatal(err)
		}
		frames = append(frames, buf.Bytes())
	}
	seedFrames(f, frames)

	f.Fuzz(func(t *testing.T, data []byte) {
		var resp Response
		if !checkFrameRead(t, data, func(br *bufio.Reader) (err error) {
			resp, err = ReadResponse(br)
			return err
		}) {
			return
		}
		var buf bytes.Buffer
		bw := bufio.NewWriter(&buf)
		if err := WriteResponse(bw, resp); err != nil {
			t.Fatalf("re-encode %+v: %v", resp, err)
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		// A response has one encoding, so the frame must come back intact.
		if frame := data[:buf.Len()]; !bytes.Equal(buf.Bytes(), frame) {
			t.Fatalf("round trip: frame %x re-encoded as %x", frame, buf.Bytes())
		}
	})
}
