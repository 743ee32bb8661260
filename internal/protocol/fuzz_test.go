package protocol

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzDecodeFrame feeds arbitrary bytes to the frame decoder. The decoder
// must never panic and never allocate beyond the frame cap: any outcome
// other than a clean (Message, n, nil) or a typed error is a bug. Run with
//
//	go test -fuzz=FuzzDecodeFrame ./internal/protocol
func FuzzDecodeFrame(f *testing.F) {
	// Seed with every valid message type plus the malformed shapes from the
	// table test so the fuzzer starts at the interesting boundaries.
	for _, m := range sampleMessages() {
		frame, err := AppendFrame(nil, m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
		if len(frame) > 5 {
			f.Add(frame[:len(frame)-3]) // truncated body
			f.Add(frame[2:])            // desynced stream
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{4, 0, 0, 0, 1, 0, 0, 0})
	// The retired Finished and ResultRequest tags, in the shapes their
	// encoders produced, so the fuzzer starts from frames a peer on an older
	// build could still send.
	for _, frame := range retiredFrames() {
		f.Add(frame)
		if len(frame) > 5 {
			f.Add(frame[:len(frame)-3])
			f.Add(frame[2:])
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		m, n, err := DecodeFrame(data)
		if err != nil {
			return
		}
		if n < 5 || n > len(data) {
			t.Fatalf("DecodeFrame consumed %d of %d bytes", n, len(data))
		}
		if m == nil {
			t.Fatal("DecodeFrame returned nil message with nil error")
		}
		// A successfully decoded message must survive a re-encode/re-decode
		// round trip (the encoder is the source of truth for the layout).
		frame, err := AppendFrame(nil, m)
		if err != nil {
			t.Fatalf("re-encoding decoded %T: %v", m, err)
		}
		m2, _, err := DecodeFrame(frame)
		if err != nil {
			t.Fatalf("re-decoding %T: %v", m, err)
		}
		frame2, err := AppendFrame(nil, m2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(frame, frame2) {
			t.Fatalf("%T not canonical:\n first %x\nsecond %x", m, frame, frame2)
		}
	})
}

// retiredFrames returns frames carrying the reserved tags of the retired
// Finished (11) and ResultRequest (28) messages, laid out as their encoders
// wrote them: Finished an object tail, ResultRequest a site and a query.
func retiredFrames() [][]byte {
	frame := func(tag byte, body []byte) []byte {
		b := appendU32(nil, uint32(1+len(body)))
		b = append(b, tag)
		return append(b, body...)
	}
	return [][]byte{
		frame(11, bytes.Repeat([]byte{0xCD}, 50)),
		frame(11, nil),
		frame(28, appendInt(appendInt(nil, 2), 6)),
		frame(28, appendInt(appendInt(nil, 0), 0)),
	}
}

// TestRetiredTagsRejected pins that the reserved tags stay unknown: a frame
// from a build that still sends Finished or ResultRequest is refused, never
// decoded as some other message.
func TestRetiredTagsRejected(t *testing.T) {
	for _, frame := range retiredFrames() {
		if m, _, err := DecodeFrame(frame); !errors.Is(err, ErrUnknownType) {
			t.Errorf("tag %d: got (%T, %v), want ErrUnknownType", frame[4], m, err)
		}
	}
}
