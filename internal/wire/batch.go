package wire

import (
	"fmt"

	"semdisco/internal/codec"
)

// Batch frames coalesce several marshaled envelopes into one datagram so
// small high-rate messages (lease renews, beacons, notify fan-out) share
// a syscall. The layout reuses the standard 3-byte header with a type
// byte reserved outside the MsgType space, then a message count and
// count length-prefixed complete envelope frames:
//
//	[0x53 'S'][0x44 'D'][version][0xBF][uvarint n] n x ([uvarint len][envelope frame])
//
// One batch is one datagram: loss, duplication, reordering and delay all
// apply to the whole frame, so a dropped batch degrades to exactly n
// dropped messages and can never corrupt a neighbouring one. Receivers
// that predate batching reject the unknown type byte and discard the
// frame silently, the same "cannot understand anyway" filtering the
// magic bytes provide.

// batchFrameType is the reserved envelope type byte marking a batch
// frame; it sits far outside the MsgType iota space so appending new
// message types can never collide with it.
const batchFrameType = 0xBF

// MaxBatchMessages bounds the per-frame message count a decoder accepts;
// beyond it the frame is treated as corrupt.
const MaxBatchMessages = 1 << 10

// batchHeaderLen is the fixed prefix before the message count.
const batchHeaderLen = 4

// IsBatchFrame reports whether a received datagram is a batch frame
// (valid header with the reserved batch type byte).
func IsBatchFrame(b []byte) bool {
	return len(b) >= batchHeaderLen &&
		b[0] == magic0 && b[1] == magic1 && b[2] == wireVersion && b[3] == batchFrameType
}

// FrameType returns the message type byte of a marshaled single-envelope
// frame, or false for short frames, foreign magic and batch frames.
// Batchers use it to classify already-encoded messages without decoding.
func FrameType(b []byte) (MsgType, bool) {
	if len(b) < 4 || b[0] != magic0 || b[1] != magic1 || b[2] != wireVersion || b[3] == batchFrameType {
		return 0, false
	}
	return MsgType(b[3]), true
}

// EncodeBatch coalesces marshaled envelope frames into a single batch
// frame. The returned slice is freshly allocated and owned by the
// caller; the input frames are only read.
func EncodeBatch(frames [][]byte) []byte {
	w := encodePool.Get().(*codec.Buffer)
	defer func() {
		w.Reset()
		encodePool.Put(w)
	}()
	w.Byte(magic0)
	w.Byte(magic1)
	w.Byte(wireVersion)
	w.Byte(batchFrameType)
	w.Uvarint(uint64(len(frames)))
	for _, f := range frames {
		w.BytesVar(f)
	}
	out := make([]byte, w.Len())
	copy(out, w.Bytes())
	return out
}

// BatchOverhead returns the encoded size a batch of n frames totalling
// payload bytes adds over sending the frames back to back; batchers use
// it for flush-on-size accounting without encoding twice.
func BatchOverhead(n int, frameLens []int) int {
	over := batchHeaderLen + codec.UvarintLen(uint64(n))
	for _, l := range frameLens {
		over += codec.UvarintLen(uint64(l))
	}
	return over
}

// ForEachInBatch walks a batch frame, calling fn once per inner envelope
// frame in send order. The slices passed to fn alias the input buffer.
// Iteration stops at the first fn error. A malformed frame (bad header,
// oversized count, truncated or trailing bytes) returns an error the
// caller treats as "silently discard" before fn has seen any inner frame:
// the length prefixes are walked once to validate, then again to deliver,
// so a bad batch is exactly n dropped messages, never a delivered prefix.
func ForEachInBatch(b []byte, fn func(msg []byte) error) error {
	if !IsBatchFrame(b) {
		return fmt.Errorf("wire: not a batch frame")
	}
	var r codec.Reader
	for deliver := 0; deliver < 2; deliver++ {
		r.Reset(b[batchHeaderLen:])
		n, err := r.Uvarint()
		if err != nil {
			return err
		}
		if n > MaxBatchMessages {
			return fmt.Errorf("wire: batch count %d exceeds limit %d", n, MaxBatchMessages)
		}
		for i := uint64(0); i < n; i++ {
			f, err := r.BytesVar()
			if err != nil {
				return err
			}
			if deliver == 1 {
				if err := fn(f); err != nil {
					return err
				}
			}
		}
		if err := r.Expect("batch"); err != nil {
			return err
		}
	}
	return nil
}
