package dnn

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"offloadnn/internal/tensor"
)

// buildSplitFixture instantiates a 4-stage path's blocks once so the
// whole-path and segment models alias the same weights, exactly as the
// execution backend's shared block library does.
func buildSplitFixture(t *testing.T) (ResNetConfig, *Block, []*Block, *Block) {
	t.Helper()
	cfg := DefaultResNetConfig()
	stem := BuildStemBlock(cfg)
	stages := make([]*Block, 0, 4)
	for p := 1; p <= 4; p++ {
		blk, err := BuildStageBlock(cfg, fmt.Sprintf("split/s%d", p), p, 0, int64(100+p))
		if err != nil {
			t.Fatal(err)
		}
		stages = append(stages, blk)
	}
	classifier := BuildClassifierBlock(cfg, StageWidth(cfg, 4))
	return cfg, stem, stages, classifier
}

// TestSegmentBoundaryShapesMatchForward pins the analytic cut-point
// geometry against the real thing: the shape EnumerateCutPoints prices
// a transfer with must be the shape the assembled prefix actually
// emits, for both the default 8x8 frames and a larger input.
func TestSegmentBoundaryShapesMatchForward(t *testing.T) {
	cfg, stem, stages, _ := buildSplitFixture(t)
	for _, hw := range []int{8, 16} {
		input := [3]int{3, hw, hw}
		cuts := EnumerateCutPoints(cfg, len(stages), input)
		if len(cuts) != len(stages)-1 {
			t.Fatalf("hw=%d: %d cut points, want %d", hw, len(cuts), len(stages)-1)
		}
		for _, cut := range cuts {
			head, err := AssembleSegmentModel("head", stem, stages[:cut.After], nil)
			if err != nil {
				t.Fatal(err)
			}
			x := testInput(1, input[0], hw, int64(hw))
			y, err := head.Forward(x, false)
			if err != nil {
				t.Fatal(err)
			}
			got := [3]int{y.Dim(1), y.Dim(2), y.Dim(3)}
			if got != cut.Shape {
				t.Fatalf("hw=%d cut after %d: forward shape %v, enumerated %v", hw, cut.After, got, cut.Shape)
			}
			if cut.Elems != got[0]*got[1]*got[2] || cut.WireBytes != cut.Elems*8 {
				t.Fatalf("cut after %d: elems %d wire %d inconsistent with shape %v",
					cut.After, cut.Elems, cut.WireBytes, got)
			}
		}
	}
}

// TestSplitEqualsWholeEveryCutDNN pins bit-identical logits between a
// whole path and the same path split at each legal boundary, with the
// activation passed through the wire envelope in between (so the test
// covers the serialization too, not just the segment models).
func TestSplitEqualsWholeEveryCutDNN(t *testing.T) {
	cfg, stem, stages, classifier := buildSplitFixture(t)
	whole, err := AssemblePathModel("whole", stem, stages, classifier)
	if err != nil {
		t.Fatal(err)
	}
	x := testInput(1, 3, 8, 7)
	want, err := whole.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range EnumerateCutPoints(cfg, len(stages), [3]int{3, 8, 8}) {
		head, err := AssembleSegmentModel("head", stem, stages[:cut.After], nil)
		if err != nil {
			t.Fatal(err)
		}
		tail, err := AssembleSegmentModel("tail", nil, stages[cut.After:], classifier)
		if err != nil {
			t.Fatal(err)
		}
		mid, err := head.Forward(x, false)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		man := ActivationManifest{Task: "t", Path: "p", From: cut.After, Shape: cut.Shape, RemainingMS: 100}
		if err := EncodeActivation(&buf, man, mid.Data()); err != nil {
			t.Fatal(err)
		}
		got2, data, err := DecodeActivation(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got2.From != cut.After || got2.Shape != cut.Shape {
			t.Fatalf("envelope round-trip mangled manifest: %+v", got2)
		}
		act, err := tensor.FromSlice(data, 1, cut.Shape[0], cut.Shape[1], cut.Shape[2])
		if err != nil {
			t.Fatal(err)
		}
		y, err := tail.Forward(act, false)
		if err != nil {
			t.Fatal(err)
		}
		if y.Len() != want.Len() {
			t.Fatalf("cut after %d: logit count %d, want %d", cut.After, y.Len(), want.Len())
		}
		for i, v := range y.Data() {
			if v != want.Data()[i] {
				t.Fatalf("cut after %d: logit %d = %v, whole path %v (not bit-identical)", cut.After, i, v, want.Data()[i])
			}
		}
	}
}

// TestActivationEnvelopeRejectsGarbage covers the decode guards.
func TestActivationEnvelopeRejectsGarbage(t *testing.T) {
	if _, _, err := DecodeActivation(bytes.NewReader([]byte("NOTANENVELOPE....."))); err == nil {
		t.Fatal("bad magic accepted")
	}
	var buf bytes.Buffer
	man := ActivationManifest{Task: "t", Path: "p", Shape: [3]int{2, 2, 2}, RemainingMS: 1}
	if err := EncodeActivation(&buf, man, make([]float64, 8)); err != nil {
		t.Fatal(err)
	}
	truncated := buf.Bytes()[:buf.Len()-9]
	if _, _, err := DecodeActivation(bytes.NewReader(truncated)); err == nil {
		t.Fatal("truncated payload accepted")
	}
	if err := EncodeActivation(&buf, man, make([]float64, 3)); err == nil {
		t.Fatal("shape/payload mismatch accepted")
	}
}

// hostileEnvelope frames a manifest with an arbitrary shape and a short
// payload, as a peer that skips EncodeActivation's checks could send.
func hostileEnvelope(t *testing.T, shape [3]int) []byte {
	t.Helper()
	manJSON, err := json.Marshal(ActivationManifest{Task: "t", Path: "p", Shape: shape})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.WriteString(activationMagic)
	var lenBuf [4]byte
	binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(manJSON)))
	buf.Write(lenBuf[:])
	buf.Write(manJSON)
	buf.Write(make([]byte, 16)) // two float64s: enough for a product-2 shape
	return buf.Bytes()
}

// TestDecodeActivationRejectsHostileShapes pins the shape guards: a
// manifest with a non-positive dimension (even one whose product is
// positive) or an element count past the cap is refused before the
// payload buffer is allocated, instead of decoding or panicking.
func TestDecodeActivationRejectsHostileShapes(t *testing.T) {
	for _, tc := range []struct {
		name  string
		shape [3]int
		want  string
	}{
		{"negative pair, positive product", [3]int{-1, -1, 2}, "non-positive"},
		{"zero dimension", [3]int{4, 0, 4}, "non-positive"},
		{"single negative", [3]int{2, 2, -1}, "non-positive"},
		{"over cap", [3]int{maxActivationElems, 2, 1}, "cap"},
		{"product overflows int", [3]int{1 << 31, 1 << 31, 1 << 31}, "cap"},
		{"max int", [3]int{math.MaxInt, math.MaxInt, 1}, "cap"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := DecodeActivation(bytes.NewReader(hostileEnvelope(t, tc.shape)))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("shape %v: err = %v, want one naming %q", tc.shape, err, tc.want)
			}
			if err := EncodeActivation(&bytes.Buffer{}, ActivationManifest{Shape: tc.shape}, make([]float64, 2)); err == nil {
				t.Fatalf("shape %v: encode accepted it", tc.shape)
			}
		})
	}
	// A shape exactly at the cap passes the shape guard: it fails only on
	// the short payload.
	_, _, err := DecodeActivation(bytes.NewReader(hostileEnvelope(t, [3]int{maxActivationElems, 1, 1})))
	if err == nil || !strings.Contains(err.Error(), "payload") {
		t.Fatalf("at-cap shape: err = %v, want a payload read error", err)
	}
}
