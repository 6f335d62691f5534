package quant

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"testing"
)

// maxTestFrameLen bounds every buffer a test sizes from a decoded header: a
// frame's declared length is attacker-controlled (a forged header can declare
// 2³²−1 values in 14 bytes), so tests never materialize more than this.
const maxTestFrameLen = 1 << 20

func randVec(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(5)-2))
	}
	return v
}

// The streamed frame must be byte-identical to the buffered encoder's output
// for every chunk geometry, including degenerate tails and all-zero chunks.
func TestStreamEncoderMatchesEncode(t *testing.T) {
	cases := []struct {
		n, bits, chunk int
	}{
		{0, 8, 16}, {1, 8, 16}, {15, 4, 16}, {16, 4, 16}, {17, 4, 16},
		{1000, 8, 64}, {1000, 2, 7}, {333, 5, 100}, {256, 8, 256},
	}
	for _, c := range cases {
		v := randVec(c.n, int64(c.n*1000+c.bits*10+c.chunk))
		if c.n > 20 {
			for i := 20; i < 30 && i < c.n; i++ {
				v[i] = 0 // an all-zero region to hit scale-0 chunks at chunk=7
			}
		}
		want := Encode(QuantizeChunks(v, c.bits, c.chunk))
		var buf bytes.Buffer
		deq := make([]float64, c.n)
		if err := EncodeStream(&buf, v, c.bits, c.chunk, deq); err != nil {
			t.Fatalf("n=%d bits=%d chunk=%d: %v", c.n, c.bits, c.chunk, err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("n=%d bits=%d chunk=%d: streamed bytes differ from Encode", c.n, c.bits, c.chunk)
		}
		wantDeq := QuantizeChunks(v, c.bits, c.chunk).Dequantize()
		for i := range deq {
			if deq[i] != wantDeq[i] {
				t.Fatalf("n=%d bits=%d chunk=%d: deq[%d] = %v, want %v", c.n, c.bits, c.chunk, i, deq[i], wantDeq[i])
			}
		}
	}
}

// Stream-decoding a buffered encoding must reproduce Dequantize exactly, and
// leave trailing bytes unread.
func TestStreamDecoderMatchesDequantize(t *testing.T) {
	v := randVec(777, 42)
	q := QuantizeChunks(v, 6, 50)
	frame := Encode(q)
	trailing := []byte{0xAA, 0xBB, 0xCC}
	r := bytes.NewReader(append(append([]byte(nil), frame...), trailing...))

	d, err := NewStreamDecoder(r)
	if err != nil {
		t.Fatal(err)
	}
	if d.IsRaw() || d.Bits() != 6 || d.Chunk() != 50 || d.Len() != 777 {
		t.Fatalf("header: bits=%d chunk=%d n=%d raw=%v", d.Bits(), d.Chunk(), d.Len(), d.IsRaw())
	}
	got := make([]float64, 777)
	if err := d.DecodeAll(got); err != nil {
		t.Fatal(err)
	}
	if err := d.DecodeAll(got); err == nil {
		t.Fatal("second DecodeAll of one frame accepted")
	}
	want := q.Dequantize()
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("value[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	rest, _ := io.ReadAll(r)
	if !bytes.Equal(rest, trailing) {
		t.Fatalf("decoder consumed trailing bytes: %x left, want %x", rest, trailing)
	}
}

// Raw frames stream too, in bounded blocks.
func TestStreamDecoderRawFrame(t *testing.T) {
	v := randVec(rawBlock*2+37, 7)
	frame := EncodeRaw(v)
	d, err := NewStreamDecoder(bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	if !d.IsRaw() || d.Len() != len(v) {
		t.Fatalf("raw header: raw=%v n=%d", d.IsRaw(), d.Len())
	}
	got := make([]float64, len(v))
	if err := d.DecodeAll(got); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != v[i] {
			t.Fatalf("raw value[%d] = %v, want %v", i, got[i], v[i])
		}
	}
}

// Structural violations must wrap ErrCodec, never panic, matching Decode.
func TestStreamDecoderRejectsCorruption(t *testing.T) {
	v := randVec(100, 9)
	frame := Encode(QuantizeChunks(v, 8, 32))

	cases := map[string][]byte{
		"empty":          {},
		"short header":   frame[:10],
		"bad magic":      append([]byte("XXXX"), frame[4:]...),
		"bad version":    append(append([]byte(nil), frame[:4]...), append([]byte{99}, frame[5:]...)...),
		"truncated body": frame[:len(frame)-3],
		"bits 1":         append(append([]byte(nil), frame[:5]...), append([]byte{1}, frame[6:]...)...),
		"zero chunk":     func() []byte { b := append([]byte(nil), frame...); b[10], b[11], b[12], b[13] = 0, 0, 0, 0; return b }(),
		"raw with chunk": func() []byte { b := append([]byte(nil), frame...); b[5] = 0; return b }(),
		"NaN scale chunk": func() []byte {
			b := append([]byte(nil), frame...)
			for i := 14; i < 22; i++ {
				b[i] = 0xFF
			}
			return b
		}(),
	}
	for name, b := range cases {
		d, err := NewStreamDecoder(bytes.NewReader(b))
		if err == nil {
			dst := make([]float64, min(d.Len(), maxTestFrameLen))
			err = d.DecodeAll(dst)
		}
		if !errors.Is(err, ErrCodec) {
			t.Fatalf("%s: error %v does not wrap ErrCodec", name, err)
		}
	}
}

// EncodeStream reports invalid codec parameters and writer failures as
// errors, and writes nothing for rejected arguments.
func TestStreamEncoderMisuse(t *testing.T) {
	v := randVec(20, 3)
	var buf bytes.Buffer
	for name, err := range map[string]error{
		"bits=1":    EncodeStream(&buf, v, 1, 16, nil),
		"bits=9":    EncodeStream(&buf, v, 9, 16, nil),
		"chunk=0":   EncodeStream(&buf, v, 8, 0, nil),
		"short deq": EncodeStream(&buf, v, 8, 16, make([]float64, 7)),
	} {
		if err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
	if buf.Len() != 0 {
		t.Fatalf("rejected calls wrote %d bytes", buf.Len())
	}
	if err := EncodeStream(failWriter{}, v, 8, 16, nil); err == nil {
		t.Fatal("writer failure not reported")
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, io.ErrClosedPipe }

// Steady-state decoding must not allocate per chunk: the decoder's block
// scratch is sized by the first chunk and reused for the rest (and, through
// Reset, across frames).
func TestStreamScratchPooled(t *testing.T) {
	v := randVec(4096, 11)
	var buf bytes.Buffer
	if err := EncodeStream(&buf, v, 8, 256, nil); err != nil {
		t.Fatal(err)
	}
	frame := append([]byte(nil), buf.Bytes()...)
	dst := make([]float64, len(v))
	allocs := testing.AllocsPerRun(50, func() {
		d, err := NewStreamDecoder(bytes.NewReader(frame))
		if err != nil {
			t.Fatal(err)
		}
		if err := d.DecodeAll(dst); err != nil {
			t.Fatal(err)
		}
	})
	// bytes.Reader + decoder struct + one block scratch; 16 chunks must not
	// mean 16 buffers.
	if allocs > 8 {
		t.Fatalf("stream decode allocates %.0f objects/frame, want ≤ 8 (scratch not reused?)", allocs)
	}
}
