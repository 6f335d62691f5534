package quant

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"
)

// Streaming frame codec: the same wire format as Encode/Decode (docs/WIRE.md),
// produced and consumed incrementally through io.Writer/io.Reader. Chunk
// frames are self-delimiting — the 14-byte header fixes n/chunk/bits, and
// every chunk's size follows in closed form — so a frame can be emitted or
// parsed one chunk at a time with O(chunk) working memory instead of
// materializing the whole payload. This is what lets the fldist parameter
// server stream pull bodies straight into http.ResponseWriter and decode push
// bodies chunk-by-chunk under MaxBytesReader. No protocol change: a streamed
// frame is byte-identical to Encode(QuantizeChunks(v, bits, chunk)).

// scratchPool recycles the per-chunk byte buffers of the streaming codec, so
// a steady-state server encodes and decodes frames with near-zero allocation.
var scratchPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 4096); return &b },
}

// getScratch returns a pooled byte slice of length n.
func getScratch(n int) *[]byte {
	p := scratchPool.Get().(*[]byte)
	if cap(*p) < n {
		*p = make([]byte, n)
	}
	*p = (*p)[:n]
	return p
}

func putScratch(p *[]byte) { scratchPool.Put(p) }

// StreamEncoder emits one quantized frame incrementally: the header at
// construction, then one chunk per WriteChunk call in order. The output is
// byte-identical to Encode(QuantizeChunks(v, bits, chunk)) over the
// concatenation of the WriteChunk inputs.
type StreamEncoder struct {
	w     io.Writer
	bits  int
	chunk int
	n     int
	done  int // values written so far
	hdr   [frameHeaderSize + 8]byte
}

// NewStreamEncoder writes the frame header for an n-value vector quantized at
// the given bits/chunk and returns an encoder for its chunks.
func NewStreamEncoder(w io.Writer, bits, chunk, n int) (*StreamEncoder, error) {
	if bits < 2 || bits > 8 {
		return nil, fmt.Errorf("quant: stream encoder bits %d outside [2,8]", bits)
	}
	if chunk < 1 {
		return nil, fmt.Errorf("quant: stream encoder chunk %d must be ≥ 1", chunk)
	}
	if n < 0 || n > math.MaxUint32 {
		return nil, fmt.Errorf("quant: stream encoder n %d outside [0,2^32)", n)
	}
	e := &StreamEncoder{w: w, bits: bits, chunk: chunk, n: n}
	hdr := appendHeader(e.hdr[:0], bits, n, chunk)
	if _, err := w.Write(hdr); err != nil {
		return nil, fmt.Errorf("quant: stream encoder header: %w", err)
	}
	return e, nil
}

// NextLen returns the value count of the next chunk to write, 0 when the
// frame is complete.
func (e *StreamEncoder) NextLen() int {
	if e.done >= e.n {
		return 0
	}
	if rem := e.n - e.done; rem < e.chunk {
		return rem
	}
	return e.chunk
}

// WriteChunk quantizes vals — which must be exactly the next NextLen() values
// of the vector — and writes the chunk's scale and packed codes. If deq is
// non-nil it must have len(vals) and receives the dequantized values (what a
// decoder will reconstruct), letting callers compute error-feedback residuals
// without a second pass.
func (e *StreamEncoder) WriteChunk(vals, deq []float64) error {
	want := e.NextLen()
	if want == 0 {
		return fmt.Errorf("quant: WriteChunk past the end of a %d-value frame", e.n)
	}
	if len(vals) != want {
		return fmt.Errorf("quant: WriteChunk got %d values, next chunk holds %d", len(vals), want)
	}
	if deq != nil && len(deq) != len(vals) {
		return fmt.Errorf("quant: WriteChunk deq length %d, want %d", len(deq), len(vals))
	}
	scale := chunkScale(vals, e.bits)
	nb := codeBytes(len(vals), e.bits)
	buf := getScratch(8 + nb)
	defer putScratch(buf)
	binary.LittleEndian.PutUint64((*buf)[:8], math.Float64bits(scale))
	packCodes((*buf)[8:], deq, vals, scale, e.bits)
	if _, err := e.w.Write(*buf); err != nil {
		return fmt.Errorf("quant: stream encoder chunk: %w", err)
	}
	e.done += len(vals)
	return nil
}

// Close verifies the full vector was written. It does not close the
// underlying writer.
func (e *StreamEncoder) Close() error {
	if e.done != e.n {
		return fmt.Errorf("quant: stream encoder closed after %d of %d values", e.done, e.n)
	}
	return nil
}

// EncodeStream writes v as one quantized frame to w via the streaming
// encoder. If deq is non-nil (len(v)), it receives the dequantized
// reconstruction. The bytes written are identical to
// Encode(QuantizeChunks(v, bits, chunk)).
func EncodeStream(w io.Writer, v []float64, bits, chunk int, deq []float64) error {
	e, err := NewStreamEncoder(w, bits, chunk, len(v))
	if err != nil {
		return err
	}
	off := 0
	for l := e.NextLen(); l > 0; l = e.NextLen() {
		var d []float64
		if deq != nil {
			d = deq[off : off+l]
		}
		if err := e.WriteChunk(v[off:off+l], d); err != nil {
			return err
		}
		off += l
	}
	return e.Close()
}

// rawBlock is how many float64 values a raw-frame stream decode reads per
// step; it bounds the scratch buffer exactly like chunk does for quantized
// frames.
const rawBlock = 512

// StreamDecoder consumes one frame incrementally from an io.Reader: the
// header at construction, then one block of values per Next call. Structural
// violations return errors wrapping ErrCodec, exactly as Decode does, and the
// decoder never reads past the end of its frame — trailing bytes stay in r.
type StreamDecoder struct {
	r      io.Reader
	bits   int
	chunk  int
	n      int
	done   int
	sparse bool
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
// validating its header, so callers can pool decoders across frames instead
// of allocating one per frame.
func (d *StreamDecoder) Reset(r io.Reader) error {
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return fmt.Errorf("%w: reading header: %v", ErrCodec, err)
	}
	if string(hdr[:4]) != frameMagic {
		return fmt.Errorf("%w: magic %q, want %q", ErrCodec, hdr[:4], frameMagic)
	}
	if hdr[4] != frameVersion {
		return fmt.Errorf("%w: version %d, want %d", ErrCodec, hdr[4], frameVersion)
	}
	d.r = r
	d.bits = int(hdr[5])
	d.n = int(binary.LittleEndian.Uint32(hdr[6:10]))
	d.chunk = int(binary.LittleEndian.Uint32(hdr[10:14]))
	d.done = 0
	d.sparse = d.bits&sparseFlag != 0
	if d.sparse {
		d.bits &^= sparseFlag
		if d.bits < 2 || d.bits > 8 {
			return fmt.Errorf("%w: sparse bits %d outside [2,8]", ErrCodec, d.bits)
		}
		if d.chunk < 1 {
			return fmt.Errorf("%w: sparse frame with chunk %d", ErrCodec, d.chunk)
		}
		return nil
	}
	if d.bits == RawBits {
		if d.chunk != 0 {
			return fmt.Errorf("%w: raw frame with chunk %d", ErrCodec, d.chunk)
		}
		return nil
	}
	if d.bits < 2 || d.bits > 8 {
		return fmt.Errorf("%w: bits %d outside {0, 2..8}", ErrCodec, d.bits)
	}
	if d.chunk < 1 {
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
func (d *StreamDecoder) IsRaw() bool { return d.bits == RawBits && !d.sparse }

// IsSparse reports whether the frame is the sparse top-k form. Sparse frames
// are consumed whole via ApplySparse (or DecodeAll), not block-by-block —
// their occupied chunks are not knowable from the header alone.
func (d *StreamDecoder) IsSparse() bool { return d.sparse }

// NextLen returns the value count of the next Next call's block: the next
// chunk for quantized frames, up to rawBlock values for raw frames, 0 once
// the frame is fully decoded. Sparse frames report 0 — use ApplySparse.
func (d *StreamDecoder) NextLen() int {
	if d.sparse {
		return 0
	}
	rem := d.n - d.done
	if rem <= 0 {
		return 0
	}
	step := d.chunk
	if d.IsRaw() {
		step = rawBlock
	}
	if rem < step {
		return rem
	}
	return step
}

// Next decodes the next block of values into dst, which must hold exactly
// NextLen() values. It returns io.EOF (with no values written) once the
// frame is complete.
func (d *StreamDecoder) Next(dst []float64) error {
	if d.sparse {
		return fmt.Errorf("quant: stream decoder Next on a sparse frame; use ApplySparse")
	}
	want := d.NextLen()
	if want == 0 {
		return io.EOF
	}
	if len(dst) != want {
		return fmt.Errorf("quant: stream decoder Next got %d-value dst, next block holds %d", len(dst), want)
	}
	if d.IsRaw() {
		buf := getScratch(8 * want)
		defer putScratch(buf)
		if _, err := io.ReadFull(d.r, *buf); err != nil {
			return fmt.Errorf("%w: raw payload: %v", ErrCodec, err)
		}
		for i := range dst {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64((*buf)[8*i:]))
		}
		d.done += want
		return nil
	}
	nb := codeBytes(want, d.bits)
	buf := getScratch(8 + nb)
	defer putScratch(buf)
	if _, err := io.ReadFull(d.r, *buf); err != nil {
		return fmt.Errorf("%w: quantized payload: %v", ErrCodec, err)
	}
	scale := math.Float64frombits(binary.LittleEndian.Uint64((*buf)[:8]))
	if math.IsNaN(scale) || math.IsInf(scale, 0) || scale < 0 {
		return fmt.Errorf("%w: chunk scale %v not a finite non-negative value", ErrCodec, scale)
	}
	unpackCodes(dst, (*buf)[8:], scale, d.bits)
	d.done += want
	return nil
}

// DecodeAll decodes the frame's remaining values into dst, which must hold
// exactly Len()−(values already decoded) values, block by block with pooled
// O(chunk) scratch. A sparse frame decodes as its dense materialization:
// stored values at their indices, exact zeros elsewhere.
func (d *StreamDecoder) DecodeAll(dst []float64) error {
	if len(dst) != d.n-d.done {
		return fmt.Errorf("quant: stream decoder DecodeAll got %d-value dst, frame has %d left",
			len(dst), d.n-d.done)
	}
	if d.sparse {
		for i := range dst {
			dst[i] = 0
		}
		return d.applySparse(dst, math.Inf(1))
	}
	off := 0
	for l := d.NextLen(); l > 0; l = d.NextLen() {
		if err := d.Next(dst[off : off+l]); err != nil {
			return err
		}
		off += l
	}
	return nil
}

// ApplySparse consumes a sparse frame, scatter-adding its stored dequantized
// values onto dst (which must hold Len() values) and leaving every unstored
// coordinate untouched — the error-feedback apply: pass the base vector in,
// get base + decoded delta out. A sum whose magnitude exceeds limit — NaN and
// ±Inf always do — is rejected at the coordinate it would be written to (a
// wire scale can be hostile), so a dst within limit on entry is within limit
// wherever ApplySparse returns nil — the caller need not sweep the n−k
// coordinates the frame never touched. limit = math.MaxFloat64 asks for
// finiteness alone. On any
// error dst is left partially applied. Structural violations wrap ErrCodec,
// and the decoder's allocations stay proportional to the bytes actually
// read, so an adversarial header cannot force an oversized buffer.
func (d *StreamDecoder) ApplySparse(dst []float64, limit float64) error {
	if !d.sparse {
		return fmt.Errorf("quant: ApplySparse on a non-sparse frame")
	}
	if d.done != 0 {
		return fmt.Errorf("quant: ApplySparse on a consumed frame")
	}
	if len(dst) != d.n {
		return fmt.Errorf("%w: ApplySparse got %d-value dst, frame declares %d", ErrCodec, len(dst), d.n)
	}
	return d.applySparse(dst, limit)
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

// readUvarintCanonical decodes one canonical uvarint of at most 5 bytes —
// the streaming twin of uvarint32, with identical acceptance.
func readUvarintCanonical(br io.ByteReader) (uint64, error) {
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

// applySparse scatter-adds the frame onto dst, rejecting a sum beyond limit
// (ApplySparse's contract); DecodeAll, which must accept exactly what Decode
// accepts, passes +Inf — onto its zeroed dst a finite scale decodes to at
// worst ±Inf, never NaN — and materializes whatever the frame says.
func (d *StreamDecoder) applySparse(dst []float64, limit float64) error {
	var cnt [4]byte
	if _, err := io.ReadFull(d.r, cnt[:]); err != nil {
		return fmt.Errorf("%w: sparse count: %v", ErrCodec, err)
	}
	k := int(binary.LittleEndian.Uint32(cnt[:]))
	if k > d.n {
		return fmt.Errorf("%w: sparse count %d exceeds n %d", ErrCodec, k, d.n)
	}
	br, ok := d.r.(io.ByteReader)
	if !ok {
		br = &byteReaderAdapter{r: d.r}
	}
	// Grow the index slice as varints arrive instead of trusting k upfront:
	// every stored index costs at least one wire byte, so memory stays
	// proportional to input actually read even under an adversarial count.
	var idx []uint32
	prev := 0
	for i := 0; i < k; i++ {
		x, err := readUvarintCanonical(br)
		if err != nil {
			return fmt.Errorf("sparse index %d: %w", i, err)
		}
		if i > 0 && x == 0 {
			return fmt.Errorf("%w: sparse index %d repeats its predecessor", ErrCodec, i)
		}
		if x > uint64(d.n) {
			return fmt.Errorf("%w: sparse index delta %d exceeds n %d", ErrCodec, x, d.n)
		}
		ix := prev + int(x)
		if i == 0 {
			ix = int(x)
		}
		if ix >= d.n {
			return fmt.Errorf("%w: sparse index %d outside [0,%d)", ErrCodec, ix, d.n)
		}
		idx = append(idx, uint32(ix))
		prev = ix
	}
	// A group holds at most min(chunk, k) values, and every index cost a
	// wire byte: sizing by the header's chunk alone would let 18 hostile
	// bytes ask for 32 GiB.
	vals := make([]float64, 0, min(d.chunk, len(idx)))
	for i := 0; i < len(idx); {
		c := int(idx[i]) / d.chunk
		j := i + 1
		for j < len(idx) && int(idx[j])/d.chunk == c {
			j++
		}
		m := j - i
		nb := codeBytes(m, d.bits)
		buf := getScratch(8 + nb)
		if _, err := io.ReadFull(d.r, *buf); err != nil {
			putScratch(buf)
			return fmt.Errorf("%w: sparse chunk block: %v", ErrCodec, err)
		}
		scale := math.Float64frombits(binary.LittleEndian.Uint64((*buf)[:8]))
		if math.IsNaN(scale) || math.IsInf(scale, 0) || scale < 0 {
			putScratch(buf)
			return fmt.Errorf("%w: sparse chunk scale %v not a finite non-negative value", ErrCodec, scale)
		}
		vals = vals[:m]
		unpackCodes(vals, (*buf)[8:], scale, d.bits)
		putScratch(buf)
		for t, x := range vals {
			sum := dst[idx[i+t]] + x
			if !(math.Abs(sum) <= limit) {
				return fmt.Errorf("%w: sparse value at index %d makes a sum beyond %g", ErrCodec, idx[i+t], limit)
			}
			dst[idx[i+t]] = sum
		}
		i = j
	}
	d.done = d.n
	return nil
}
