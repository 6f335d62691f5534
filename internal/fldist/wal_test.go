package fldist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fedprophet/internal/quant"
)

// Golden-vector and corruption tests of the FWL1 record format. The encoders
// must be byte-stable — recovery determinism and the docs/ARCHITECTURE.md
// format spec both depend on the bytes never drifting — so every record type
// is pinned against a checked-in reference encoding under testdata/. The
// decoders must uphold the ErrWAL contract: structurally bad bytes yield an
// error wrapping ErrWAL, never a panic, no matter where the corruption sits.

var updateGolden = flag.Bool("update", false, "rewrite the golden WAL vectors under testdata/")

// goldenVec builds a small deterministic vector of exactly representable
// values, so the golden bytes are stable across platforms.
func goldenVec(n int, scale float64) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = scale * (float64(i) - 1.5)
	}
	return v
}

// goldenWALRecords enumerates one reference record per type, with fixed
// logical content. Changing any encoder in wal.go breaks these on purpose:
// a byte-level format change must be a deliberate, versioned decision.
func goldenWALRecords() map[string][]byte {
	meta := walMeta{async: true, quorumOrK: 4, maxStale: 2, nParams: 5, nBN: 2}
	commit := walCommit{
		round:  3,
		params: goldenVec(5, 0.25),
		bn:     goldenVec(2, -2),
		downErr: []walVariantErr{
			// Deliberately out of (bits, chunk) order: the encoder must sort.
			{comp: Compression{Bits: 8, Chunk: 64}, residual: goldenVec(5, 0.125)},
			{comp: Compression{Bits: 4, Chunk: 32}, residual: goldenVec(5, -0.5)},
		},
	}
	// A push body verbatim — the FPU1 header, a quantized params frame
	// (power-of-two scales, so the encoding is exact and platform-stable) and
	// a raw BN frame.
	frameAdmit := &walAdmit{body: goldenFrameBody()}
	// A delta-downlink push: its chain base, as two raw frames, ahead of the
	// push body.
	chainAdmit := &walAdmit{
		chain: &updateBase{p: goldenVec(8, 2), bn: goldenVec(2, 0.75)},
		body:  goldenChainBody(),
	}
	edge := walEdgeBatch{
		pushID: 1 << 20, pushSeq: 3, baseRnd: 2, weight: 2.5,
		payloadP: goldenVec(5, 1), payloadB: goldenVec(2, -1),
		baseP: goldenVec(5, 0.5), baseBN: goldenVec(2, 4),
	}
	return map[string][]byte{
		"fwl1_meta.bin":         appendWALRecord(nil, walRecMeta, 0, appendWALMeta(nil, meta)),
		"fwl1_commit.bin":       appendWALRecord(nil, walRecCommit, 7, appendWALCommit(nil, commit)),
		"fwl1_admit_chain.bin":  appendWALRecord(nil, walRecAdmit, 8, appendWALAdmit(nil, chainAdmit)),
		"fwl1_admit_frames.bin": appendWALRecord(nil, walRecAdmit, 9, appendWALAdmit(nil, frameAdmit)),
		"fwl1_edge.bin":         appendWALRecord(nil, walRecEdgeBatch, 0, appendWALEdgeBatch(nil, edge)),
	}
}

// goldenFrameBody is the golden frame-form admission's push body: client 11,
// round 3, weight 0.5.
func goldenFrameBody() []byte {
	b, _ := encodeUpdateEnvelope(11, 3, 0.5,
		quant.Encode(quant.QuantizeChunks(goldenVec(8, 0.5), 8, 4)), quant.EncodeRaw(goldenVec(2, 1)))
	return b
}

// goldenChainBody is the golden chain admission's push body: client 9,
// round 2, weight 1.5.
func goldenChainBody() []byte {
	b, _ := encodeUpdateEnvelope(9, 2, 1.5,
		quant.Encode(quant.QuantizeChunks(goldenVec(8, 0.25), 8, 4)), quant.EncodeRaw(goldenVec(2, 0.5)))
	return b
}

// Encode byte-stability: every record type's encoding matches the checked-in
// golden bytes exactly. Run with -update to regenerate after a deliberate
// format change (and bump walVersion when doing so).
func TestWALGoldenVectors(t *testing.T) {
	for name, got := range goldenWALRecords() {
		path := filepath.Join("testdata", name)
		if *updateGolden {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (run with -update to generate)", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: encoding drifted from golden bytes (%d vs %d bytes); a format change needs a version bump and -update", name, len(got), len(want))
		}
	}
}

// Round trip: every golden record parses back to its logical content.
func TestWALRecordRoundTrip(t *testing.T) {
	recs := goldenWALRecords()

	typ, seq, payload, size, err := parseWALRecord(recs["fwl1_commit.bin"])
	if err != nil || typ != walRecCommit || seq != 7 || size != len(recs["fwl1_commit.bin"]) {
		t.Fatalf("commit header: typ=%d seq=%d size=%d err=%v", typ, seq, size, err)
	}
	c, err := parseWALCommit(payload)
	if err != nil {
		t.Fatal(err)
	}
	if c.round != 3 || len(c.params) != 5 || len(c.bn) != 2 || len(c.downErr) != 2 {
		t.Fatalf("commit content: %+v", c)
	}
	// The encoder sorted the variants by (bits, chunk).
	if c.downErr[0].comp != (Compression{Bits: 4, Chunk: 32}) || c.downErr[1].comp != (Compression{Bits: 8, Chunk: 64}) {
		t.Fatalf("variants not in (bits, chunk) order: %+v", c.downErr)
	}
	for i, v := range goldenVec(5, 0.25) {
		if c.params[i] != v {
			t.Fatalf("params[%d] = %v, want %v", i, c.params[i], v)
		}
	}

	_, _, payload, _, err = parseWALRecord(recs["fwl1_admit_chain.bin"])
	if err != nil {
		t.Fatal(err)
	}
	a, err := parseWALAdmit(payload)
	if err != nil {
		t.Fatal(err)
	}
	if id, round, w, err := parseUpdateHeader(a.body); err != nil || id != 9 || round != 2 || w != 1.5 || a.chain == nil {
		t.Fatalf("chain admit content: client %d round %d weight %v (%v), chain %v", id, round, w, err, a.chain)
	}
	for i, v := range goldenVec(8, 2) {
		if a.chain.p[i] != v {
			t.Fatalf("chain base params[%d] = %v, want %v", i, a.chain.p[i], v)
		}
	}
	if len(a.chain.bn) != 2 || a.chain.bn[1] != goldenVec(2, 0.75)[1] {
		t.Fatalf("chain base bn = %v", a.chain.bn)
	}
	if want := goldenChainBody(); !bytes.Equal(a.body, want) {
		t.Fatalf("chain admit: body did not round-trip verbatim (%d vs %d bytes)", len(a.body), len(want))
	}

	_, _, payload, _, err = parseWALRecord(recs["fwl1_admit_frames.bin"])
	if err != nil {
		t.Fatal(err)
	}
	fa, err := parseWALAdmit(payload)
	if err != nil {
		t.Fatal(err)
	}
	if want := goldenFrameBody(); !bytes.Equal(fa.body, want) {
		t.Fatalf("frame admit: body did not round-trip verbatim (%d vs %d bytes)", len(fa.body), len(want))
	}
	if fa.chain != nil {
		t.Fatalf("frame admit decoded a chain base: %+v", fa.chain)
	}

	_, _, payload, _, err = parseWALRecord(recs["fwl1_edge.bin"])
	if err != nil {
		t.Fatal(err)
	}
	b, err := parseWALEdgeBatch(payload)
	if err != nil {
		t.Fatal(err)
	}
	if b.pushID != 1<<20 || b.pushSeq != 3 || b.baseRnd != 2 || b.weight != 2.5 {
		t.Fatalf("edge batch content: %+v", b)
	}

	_, _, payload, _, err = parseWALRecord(recs["fwl1_meta.bin"])
	if err != nil {
		t.Fatal(err)
	}
	m, err := parseWALMeta(payload)
	if err != nil {
		t.Fatal(err)
	}
	if m != (walMeta{async: true, quorumOrK: 4, maxStale: 2, nParams: 5, nBN: 2}) {
		t.Fatalf("meta content: %+v", m)
	}
}

// The corruption contract: every hand-corrupted variant of a valid record
// yields an error wrapping ErrWAL — never a panic, never a silent success.
func TestWALRecordCorruption(t *testing.T) {
	valid := goldenWALRecords()["fwl1_commit.bin"]

	cases := []struct {
		name    string
		corrupt func() []byte
	}{
		{"bad magic", func() []byte {
			b := append([]byte(nil), valid...)
			b[0] ^= 0xff
			return b
		}},
		{"bad crc via payload flip", func() []byte {
			b := append([]byte(nil), valid...)
			b[len(b)-1] ^= 0x01
			return b
		}},
		{"bad crc via header flip", func() []byte {
			b := append([]byte(nil), valid...)
			b[4] ^= 0x01 // record type participates in the CRC
			return b
		}},
		{"zero-length record", func() []byte {
			b := append([]byte(nil), valid...)
			binary.LittleEndian.PutUint32(b[5:9], 0)
			return b
		}},
		{"oversized declared length", func() []byte {
			b := append([]byte(nil), valid...)
			binary.LittleEndian.PutUint32(b[5:9], uint32(walMaxPayload+1))
			return b
		}},
		{"truncated payload", func() []byte {
			return append([]byte(nil), valid[:len(valid)-3]...)
		}},
		{"truncated header", func() []byte {
			return append([]byte(nil), valid[:walHeaderSize-2]...)
		}},
		{"empty buffer", func() []byte { return nil }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, _, _, err := parseWALRecord(tc.corrupt())
			if !errors.Is(err, ErrWAL) {
				t.Fatalf("err = %v, want ErrWAL", err)
			}
		})
	}
}

// Payload-level corruption below the CRC (a buggy or foreign writer, not bit
// rot): the per-type parsers must also uphold the ErrWAL contract.
func TestWALPayloadCorruption(t *testing.T) {
	if _, err := parseWALMeta([]byte{1, 2, 3}); !errors.Is(err, ErrWAL) {
		t.Fatalf("short meta: %v", err)
	}
	if _, err := parseWALMeta(append(append([]byte{7}, make([]byte, 16)...), walFormat)); !errors.Is(err, ErrWAL) {
		t.Fatalf("bad meta mode: %v", err)
	}

	// Commit whose variant count promises more than the payload holds.
	c := appendWALCommit(nil, walCommit{round: 1, params: goldenVec(3, 1), bn: goldenVec(2, 1)})
	binary.LittleEndian.PutUint32(c[len(c)-4:], 5)
	if _, err := parseWALCommit(c); !errors.Is(err, ErrWAL) {
		t.Fatalf("truncated variants: %v", err)
	}
	// Variant count beyond the served-codec cap: refused before any loop.
	c2 := appendWALCommit(nil, walCommit{round: 1, params: goldenVec(3, 1), bn: goldenVec(2, 1)})
	binary.LittleEndian.PutUint32(c2[len(c2)-4:], uint32(maxCodecVariants+1))
	if _, err := parseWALCommit(c2); !errors.Is(err, ErrWAL) {
		t.Fatalf("variant count over cap: %v", err)
	}
	// Trailing bytes after a complete commit payload.
	c3 := append(appendWALCommit(nil, walCommit{round: 1, params: goldenVec(3, 1), bn: goldenVec(2, 1)}), 0xee)
	if _, err := parseWALCommit(c3); !errors.Is(err, ErrWAL) {
		t.Fatalf("trailing bytes: %v", err)
	}
	// A quantized frame where the WAL requires raw.
	q := quant.QuantizeChunks(goldenVec(8, 1), 4, 4)
	bad := binary.LittleEndian.AppendUint32(nil, 1)
	bad = append(bad, quant.Encode(q)...)
	if _, err := parseWALCommit(bad); !errors.Is(err, ErrWAL) {
		t.Fatalf("quantized frame in commit: %v", err)
	}

	if _, err := parseWALAdmit(nil); !errors.Is(err, ErrWAL) {
		t.Fatalf("empty admit: %v", err)
	}
	// A chain record whose base stops after the params frame.
	chainCut := append([]byte{walAdmitChain}, quant.EncodeRaw(goldenVec(3, 1))...)
	if _, err := parseWALAdmit(chainCut); !errors.Is(err, ErrWAL) {
		t.Fatalf("chain admit with a truncated base: %v", err)
	}
	// Unknown flag bits: refused rather than silently reinterpreted by a
	// future reader that assigns them meaning.
	unknownFlags := append([]byte{walAdmitChain | 0x80}, goldenFrameBody()...)
	if _, err := parseWALAdmit(unknownFlags); !errors.Is(err, ErrWAL) {
		t.Fatalf("unknown admit flags: %v", err)
	}
	if _, err := parseWALEdgeBatch(make([]byte, 10)); !errors.Is(err, ErrWAL) {
		t.Fatalf("short edge batch: %v", err)
	}
}

// TestWALMetaFormatCompat pins the log format level: this binary writes and
// reads format 4 (18-byte meta payload) only. Formats 1 (17 bytes, no format
// byte) and 2 hold delta-form admissions, format 3 frame-form ones beside
// registry-derived fields; each is refused with an error naming its format,
// and a future format is refused instead of misread.
func TestWALMetaFormatCompat(t *testing.T) {
	m := walMeta{async: true, quorumOrK: 3, maxStale: 5, nParams: 100, nBN: 4}
	p := appendWALMeta(nil, m)
	if len(p) != 18 || p[17] != 4 || walFormat != 4 {
		t.Fatalf("meta payload %d bytes, final byte %d; want 18 and format 4", len(p), p[len(p)-1])
	}
	got, err := parseWALMeta(p)
	if err != nil || got != m {
		t.Fatalf("parseWALMeta round-trip: %+v err %v", got, err)
	}
	for format, meta := range map[int][]byte{
		1: p[:17],
		2: append(append([]byte(nil), p[:17]...), 2),
		3: append(append([]byte(nil), p[:17]...), 3),
		5: append(append([]byte(nil), p[:17]...), 5),
	} {
		_, err := parseWALMeta(meta)
		if !errors.Is(err, ErrWAL) || !strings.Contains(err.Error(), fmt.Sprintf("format %d ", format)) {
			t.Fatalf("format-%d meta: err %v, want ErrWAL naming format %d", format, err, format)
		}
	}
}

// TestRecoverRefusesOldFormatUntouched pins that a log of an earlier
// release is refused whole at open, its file byte-identical and WALExists
// reporting it, so no fresh log starts beside it: a single-file wal.log,
// whatever it holds, and a segment whose meta record names format 2 or 3
// (the segment holds the meta, the initial commit and an admission in that
// format's record form — delta form, or frames beside registry-derived
// fields; recovery fails with ErrWAL naming the format instead of truncating
// the segment at its first admission record).
func TestRecoverRefusesOldFormatUntouched(t *testing.T) {
	segment := func(format byte, admit []byte) []byte {
		meta := appendWALMeta(nil, walMeta{async: true, quorumOrK: 3, maxStale: 2, nParams: 6, nBN: 2})
		meta[17] = format
		log := appendWALRecord(nil, walRecMeta, 0, meta)
		log = appendWALRecord(log, walRecCommit, 1, appendWALCommit(nil, walCommit{params: synthVec(6, 1), bn: synthVec(2, 2)}))
		return appendWALRecord(log, walRecAdmit, 2, admit)
	}
	// Both old admission forms open with admit round, base round, client, a
	// flag byte (bit 1: compressed, bit 2: frame form) and the weight.
	oldAdmit := func(flags byte, vectors ...[]byte) []byte {
		a := binary.LittleEndian.AppendUint32(nil, 0) // admit round
		a = binary.LittleEndian.AppendUint32(a, 0)    // base round
		a = binary.LittleEndian.AppendUint32(a, 7)    // client
		a = append(a, flags)                          // flags
		a = binary.LittleEndian.AppendUint64(a, math.Float64bits(1))
		for _, v := range vectors {
			a = append(a, v...)
		}
		return a
	}
	delta := oldAdmit(1, quant.EncodeRaw(synthVec(6, 3)), quant.EncodeRaw(synthVec(2, 4)))
	frames := oldAdmit(2, quant.EncodeRaw(synthVec(6, 3)), quant.EncodeRaw(synthVec(2, 4)))

	for _, tc := range []struct {
		name, file, wantErr string
		log                 []byte
	}{
		{"single file", walOldLogName, "single-file wal.log", segment(2, delta)},
		{"format 2", walSegName(0), "format 2 ", segment(2, delta)},
		{"format 3", walSegName(0), "format 3 ", segment(3, frames)},
	} {
		dir := t.TempDir()
		path := filepath.Join(dir, tc.file)
		if err := os.WriteFile(path, tc.log, 0o644); err != nil {
			t.Fatal(err)
		}
		if !WALExists(dir) {
			t.Fatalf("%s: WALExists reports no log", tc.name)
		}
		rec, err := RecoverServer(dir)
		if err == nil {
			rec.Close()
			t.Fatalf("%s: recovered an old log", tc.name)
		}
		if !errors.Is(err, ErrWAL) || !strings.Contains(err.Error(), tc.wantErr) {
			t.Fatalf("%s: error %v, want ErrWAL naming %q", tc.name, err, tc.wantErr)
		}
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(after, tc.log) {
			t.Fatalf("%s: refused log changed: %d bytes, was %d", tc.name, len(after), len(tc.log))
		}
		wantSegs := 1
		if tc.file == walOldLogName {
			wantSegs = 0 // no fresh log beside the old one
		}
		if rounds, _ := walSegments(dir); len(rounds) != wantSegs {
			t.Fatalf("%s: refusal left segments %v", tc.name, rounds)
		}
	}
}

// The edge parked-batch slot: write/read/clear round trip, empty-slot
// reporting, and corruption → ErrWAL (a corrupt slot must never be silently
// dropped as "no batch").
func TestEdgeWALSlot(t *testing.T) {
	dir := t.TempDir()
	if _, ok, err := readEdgeWAL(dir); err != nil || ok {
		t.Fatalf("empty dir: ok=%v err=%v", ok, err)
	}
	in := walEdgeBatch{
		pushID: 42, pushSeq: 7, baseRnd: 3, weight: 1.25,
		payloadP: goldenVec(6, 1), payloadB: goldenVec(2, 2),
		baseP: goldenVec(6, 3), baseBN: goldenVec(2, 4),
	}
	if err := writeEdgeWAL(dir, in); err != nil {
		t.Fatal(err)
	}
	out, ok, err := readEdgeWAL(dir)
	if err != nil || !ok {
		t.Fatalf("read: ok=%v err=%v", ok, err)
	}
	if out.pushID != in.pushID || out.pushSeq != in.pushSeq || out.baseRnd != in.baseRnd ||
		out.weight != in.weight {
		t.Fatalf("slot round trip: %+v", out)
	}
	for i := range in.payloadP {
		if out.payloadP[i] != in.payloadP[i] {
			t.Fatalf("payloadP[%d] = %v, want %v", i, out.payloadP[i], in.payloadP[i])
		}
	}

	// Replace wins whole: a second write atomically supersedes the first.
	in2 := in
	in2.baseRnd = 9
	if err := writeEdgeWAL(dir, in2); err != nil {
		t.Fatal(err)
	}
	if out, _, _ := readEdgeWAL(dir); out.baseRnd != 9 {
		t.Fatalf("rewrite: baseRnd = %d, want 9", out.baseRnd)
	}

	// Corrupt slot: ErrWAL, not an empty read.
	raw, err := os.ReadFile(filepath.Join(dir, edgeWALName))
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 1
	if err := os.WriteFile(filepath.Join(dir, edgeWALName), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readEdgeWAL(dir); !errors.Is(err, ErrWAL) {
		t.Fatalf("corrupt slot: err = %v, want ErrWAL", err)
	}

	// A slot in the layout of earlier releases — a u32 update count between
	// the base round and the weight — is refused, not misread.
	old := binary.LittleEndian.AppendUint32(nil, uint32(in.pushID))
	old = binary.LittleEndian.AppendUint32(old, uint32(in.pushSeq))
	old = binary.LittleEndian.AppendUint32(old, uint32(in.baseRnd))
	old = binary.LittleEndian.AppendUint32(old, 2) // update count
	old = binary.LittleEndian.AppendUint64(old, math.Float64bits(in.weight))
	for _, v := range [][]float64{in.payloadP, in.payloadB, in.baseP, in.baseBN} {
		old = quant.AppendRaw(old, v)
	}
	if err := os.WriteFile(filepath.Join(dir, edgeWALName), appendWALRecord(nil, walRecEdgeBatch, 0, old), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readEdgeWAL(dir); !errors.Is(err, ErrWAL) {
		t.Fatalf("slot in the old layout: err = %v, want ErrWAL", err)
	}

	if err := clearEdgeWAL(dir); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := readEdgeWAL(dir); err != nil || ok {
		t.Fatalf("after clear: ok=%v err=%v", ok, err)
	}
	if err := clearEdgeWAL(dir); err != nil { // missing is success
		t.Fatal(err)
	}
}
