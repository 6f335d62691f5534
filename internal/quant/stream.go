package quant

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
)

// The one parser: every frame form is read here, incrementally from an
// io.Reader. Frames are self-delimiting — the 14-byte header fixes
// n/chunk/bits, and every block's size follows from it (and, for sparse
// frames, from the index varints) — so a frame is consumed one block at a
// time with working memory bounded by the block, never by the whole payload.
// This is what lets the fldist parameter server decode push bodies
// block-by-block off the HTTP request; Decode and DecodeFirst run the same
// parser over a byte slice.

// rawBlock is how many float64 values one raw-frame block holds; it bounds
// the scratch exactly like the chunk does for quantized frames.
const rawBlock = 512

// StreamDecoder consumes one frame from an io.Reader: the header at
// construction (or Reset), then the payload through exactly one of
// DecodeAll, ApplyDelta or Frame. Structural violations return errors
// wrapping ErrCodec, the decoder never reads past the end of its frame —
// trailing bytes stay in r — and its allocations grow only with payload
// bytes actually read, whatever the header declares.
type StreamDecoder struct {
	r      io.Reader
	bits   int
	chunk  int
	n      int
	sparse bool
	spent  bool
	hdr    [FrameHeaderSize]byte
	buf    []byte    // block scratch, reused across Reset
	vals   []float64 // decoded-block scratch, reused across Reset
}

// NewStreamDecoder reads and validates a frame header from r.
func NewStreamDecoder(r io.Reader) (*StreamDecoder, error) {
	d := &StreamDecoder{}
	if err := d.Reset(r); err != nil {
		return nil, err
	}
	return d, nil
}

// Reset re-initializes the decoder onto a new frame from r, reading and
// validating its header, so callers can pool decoders (and their scratch)
// across frames.
func (d *StreamDecoder) Reset(r io.Reader) error {
	d.r, d.spent = r, false
	hdr := d.hdr[:]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return fmt.Errorf("%w: reading header: %v", ErrCodec, err)
	}
	if string(hdr[:4]) != frameMagic {
		return fmt.Errorf("%w: magic %q, want %q", ErrCodec, hdr[:4], frameMagic)
	}
	if hdr[4] != frameVersion {
		return fmt.Errorf("%w: version %d, want %d", ErrCodec, hdr[4], frameVersion)
	}
	d.bits = int(hdr[5])
	d.n = int(binary.LittleEndian.Uint32(hdr[6:10]))
	d.chunk = int(binary.LittleEndian.Uint32(hdr[10:14]))
	d.sparse = d.bits&sparseFlag != 0
	d.bits &^= sparseFlag
	switch {
	case d.bits == RawBits && !d.sparse:
		if d.chunk != 0 {
			return fmt.Errorf("%w: raw frame with chunk %d", ErrCodec, d.chunk)
		}
	case d.bits < 2 || d.bits > 8:
		return fmt.Errorf("%w: bits %d (sparse %v) outside {0, 2..8}", ErrCodec, d.bits, d.sparse)
	case d.chunk < 1:
		return fmt.Errorf("%w: quantized frame with chunk %d", ErrCodec, d.chunk)
	}
	return nil
}

// Bits returns the frame's code width (RawBits for an exact float64 frame).
func (d *StreamDecoder) Bits() int { return d.bits }

// Chunk returns the frame's values-per-scale count (0 for raw frames).
func (d *StreamDecoder) Chunk() int { return d.chunk }

// Len returns the total number of float64 values the frame carries.
func (d *StreamDecoder) Len() int { return d.n }

// IsRaw reports whether the frame carries exact float64 values.
func (d *StreamDecoder) IsRaw() bool { return d.bits == RawBits }

// IsSparse reports whether the frame is the sparse top-k form.
func (d *StreamDecoder) IsSparse() bool { return d.sparse }

// read returns the next nb frame bytes in the decoder's scratch. The buffer
// grows only as bytes arrive — in steps that double from 4 KiB — so a
// header's size claims allocate nothing their payload has not backed.
func (d *StreamDecoder) read(nb int) ([]byte, error) {
	b := d.buf[:0]
	for len(b) < nb {
		step := min(nb-len(b), max(len(b), 4096))
		if cap(b) < len(b)+step {
			b = append(make([]byte, 0, len(b)+step), b...)
		}
		got, err := io.ReadFull(d.r, b[len(b):len(b)+step])
		b = b[:len(b)+got]
		if err != nil {
			d.buf = b
			return nil, fmt.Errorf("%w: payload %d of %d bytes: %v", ErrCodec, len(b), nb, err)
		}
	}
	d.buf = b
	return b, nil
}

// block is one unit of payload: up to rawBlock exact values of a raw frame,
// one chunk of a dense frame, or one occupied chunk's stored values of a
// sparse frame. at is the first value's position (raw, dense) or the offset
// of the first stored index in idx (sparse); m is the value count.
type block struct {
	at, m int
	scale float64
	codes []byte // quantized: packed codes; raw: m float64 LE
}

// blocks reads the payload and calls f on every block in frame order,
// handing it the stored indices of a sparse frame (nil otherwise). A block's
// codes live in scratch that the next block overwrites.
func (d *StreamDecoder) blocks(f func(b block, idx []uint32) error) error {
	if d.spent {
		return fmt.Errorf("quant: stream decoder reused without Reset")
	}
	d.spent = true
	if d.sparse {
		return d.sparseBlocks(f)
	}
	for at := 0; at < d.n; {
		var b block
		var err error
		if d.IsRaw() {
			b.at, b.m = at, min(rawBlock, d.n-at)
			b.codes, err = d.read(8 * b.m)
		} else {
			b, err = d.quantBlock(at, min(d.chunk, d.n-at))
		}
		if err == nil {
			err = f(b, nil)
		}
		if err != nil {
			return err
		}
		at += b.m
	}
	return nil
}

// sparseBlocks reads a sparse payload: the stored count, the index varints
// (the slice grows as they arrive: every index costs a wire byte, so an
// adversarial count buys no memory), then one block per occupied chunk.
func (d *StreamDecoder) sparseBlocks(f func(b block, idx []uint32) error) error {
	p, err := d.read(4)
	if err != nil {
		return err
	}
	k := int(binary.LittleEndian.Uint32(p))
	if k > d.n {
		return fmt.Errorf("%w: sparse count %d exceeds n %d", ErrCodec, k, d.n)
	}
	br, ok := d.r.(io.ByteReader)
	if !ok {
		br = &byteReaderAdapter{r: d.r}
	}
	var idx []uint32
	for i := 0; i < k; i++ {
		x, err := readUvarint(br)
		if err != nil {
			return fmt.Errorf("sparse index %d: %w", i, err)
		}
		if i > 0 {
			if x == 0 {
				return fmt.Errorf("%w: sparse index %d repeats its predecessor", ErrCodec, i)
			}
			x += uint64(idx[i-1])
		}
		if x >= uint64(d.n) {
			return fmt.Errorf("%w: sparse index %d outside [0,%d)", ErrCodec, x, d.n)
		}
		idx = append(idx, uint32(x))
	}
	for i := 0; i < k; {
		j := i + 1
		for j < k && idx[j]/uint32(d.chunk) == idx[i]/uint32(d.chunk) {
			j++
		}
		b, err := d.quantBlock(i, j-i)
		if err == nil {
			err = f(b, idx)
		}
		if err != nil {
			return err
		}
		i = j
	}
	return nil
}

// quantBlock reads one quantized block of m values: its scale, which must
// be finite and non-negative, then its packed codes.
func (d *StreamDecoder) quantBlock(at, m int) (block, error) {
	p, err := d.read(8 + codeBytes(m, d.bits))
	if err != nil {
		return block{}, err
	}
	b := block{at: at, m: m, scale: math.Float64frombits(binary.LittleEndian.Uint64(p)), codes: p[8:]}
	if !(b.scale >= 0 && b.scale <= math.MaxFloat64) {
		return block{}, fmt.Errorf("%w: chunk scale %v not a finite non-negative value", ErrCodec, b.scale)
	}
	return b, nil
}

// unpack decodes a block's m values into dst.
func (d *StreamDecoder) unpack(dst []float64, b block) {
	if d.IsRaw() {
		for i := range dst {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b.codes[8*i:]))
		}
		return
	}
	unpackCodes(dst, b.codes, b.scale, d.bits)
}

// scratch returns the decoder's value scratch resized to m values.
func (d *StreamDecoder) scratch(m int) []float64 {
	if cap(d.vals) < m {
		d.vals = make([]float64, m)
	}
	return d.vals[:m]
}

// DecodeAll decodes the whole frame into dst, which must hold exactly Len()
// values. A sparse frame decodes as its dense materialization: stored values
// at their indices, exact zeros elsewhere.
func (d *StreamDecoder) DecodeAll(dst []float64) error {
	if len(dst) != d.n {
		return fmt.Errorf("quant: DecodeAll got %d-value dst, frame has %d", len(dst), d.n)
	}
	if d.sparse {
		// Onto zeros a finite scale decodes to at worst ±Inf, never NaN, so
		// the limit +Inf materializes whatever the frame says.
		clear(dst)
		return d.ApplyDelta(dst, dst, math.Inf(1))
	}
	return d.blocks(func(b block, _ []uint32) error {
		d.unpack(dst[b.at:b.at+b.m], b)
		return nil
	})
}

// ApplyDelta consumes a quantized frame, dense or sparse, writing base plus
// its dequantized values into dst — both Len() values; base may be dst
// itself, to apply in place. A sparse frame carries every unstored
// coordinate of base over unchanged. A sum whose magnitude exceeds limit —
// NaN and ±Inf always do — is rejected at the coordinate it would be written
// to (a wire scale can be hostile), so a base within limit gives a dst within
// limit wherever ApplyDelta returns nil; limit = math.MaxFloat64 asks for
// finiteness alone. A raw frame is not a delta and is refused. On any error
// dst is left partially written.
func (d *StreamDecoder) ApplyDelta(dst, base []float64, limit float64) error {
	if d.IsRaw() {
		return fmt.Errorf("%w: raw frame where a delta belongs", ErrCodec)
	}
	if len(dst) != d.n || len(base) != d.n {
		return fmt.Errorf("%w: delta of %d values onto a %d-value base into %d values", ErrCodec, d.n, len(base), len(dst))
	}
	if d.sparse && d.n > 0 && &dst[0] != &base[0] {
		copy(dst, base)
	}
	beyond := func(i int) error {
		return fmt.Errorf("%w: value at index %d makes a sum beyond %g", ErrCodec, i, limit)
	}
	return d.blocks(func(b block, idx []uint32) error {
		vals := d.scratch(b.m)
		if idx == nil {
			lo, hi := b.at, b.at+b.m
			if t := applyCodes(dst[lo:hi], base[lo:hi], b.codes, b.scale, limit, d.bits, vals); t < b.m {
				return beyond(lo + t)
			}
			return nil
		}
		d.unpack(vals, b)
		for t, x := range vals {
			i := idx[b.at+t]
			sum := dst[i] + x
			if !(math.Abs(sum) <= limit) {
				return beyond(int(i))
			}
			dst[i] = sum
		}
		return nil
	})
}

// Frame reads the whole frame into a Frame holding its wire content — the
// exact values, or the scales, packed codes and stored indices — in buffers
// that, like the decoder's, grow only as payload bytes arrive.
func (d *StreamDecoder) Frame() (*Frame, error) {
	f := &Frame{Bits: d.bits, Chunk: d.chunk}
	if d.IsRaw() {
		f.Raw = []float64{}
	}
	var scales []float64
	var codes []byte
	var stored []uint32
	err := d.blocks(func(b block, idx []uint32) error {
		if d.IsRaw() {
			f.Raw = slices.Grow(f.Raw, b.m)[:b.at+b.m]
			d.unpack(f.Raw[b.at:], b)
			return nil
		}
		scales, codes, stored = append(scales, b.scale), append(codes, b.codes...), idx
		return nil
	})
	if err != nil {
		return nil, err
	}
	switch {
	case d.sparse:
		s := &SparseVec{Bits: d.bits, Chunk: d.chunk, N: d.n, Idx: make([]int, len(stored)), Scales: scales, Codes: codes}
		for i, ix := range stored {
			s.Idx[i] = int(ix)
		}
		f.Sparse = s
	case !d.IsRaw():
		f.Q = Chunked{Bits: d.bits, Chunk: d.chunk, N: d.n, Scales: scales, Codes: codes}
	}
	return f, nil
}

// byteReaderAdapter lifts a plain io.Reader to io.ByteReader for varint
// decoding; buffered callers (the server wraps push bodies in bufio) hit the
// native ReadByte instead.
type byteReaderAdapter struct {
	r   io.Reader
	buf [1]byte
}

func (b *byteReaderAdapter) ReadByte() (byte, error) {
	if _, err := io.ReadFull(b.r, b.buf[:]); err != nil {
		return 0, err
	}
	return b.buf[0], nil
}

// readUvarint decodes one canonical uvarint of at most 5 bytes (enough for
// any uint32-range value). It rejects truncated input, overlong
// (non-canonical) encodings and longer varints, all wrapping ErrCodec.
func readUvarint(br io.ByteReader) (uint64, error) {
	var x uint64
	var s uint
	for i := 0; i < 5; i++ {
		c, err := br.ReadByte()
		if err != nil {
			return 0, fmt.Errorf("%w: truncated varint: %v", ErrCodec, err)
		}
		if c < 0x80 {
			if i > 0 && c == 0 {
				return 0, fmt.Errorf("%w: overlong varint", ErrCodec)
			}
			return x | uint64(c)<<s, nil
		}
		x |= uint64(c&0x7f) << s
		s += 7
	}
	return 0, fmt.Errorf("%w: varint longer than 5 bytes", ErrCodec)
}
