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
	// Wire frames verbatim — a quantized params frame (power-of-two scales, so
	// the encoding is exact and platform-stable) and a raw BN frame.
	frameAdmit := &walAdmit{
		admitRound: 4, baseRound: 3, clientID: 11, comp: true, effW: 0.5,
		frames: append(
			quant.Encode(quant.QuantizeChunks(goldenVec(8, 0.5), 8, 4)),
			quant.EncodeRaw(goldenVec(2, 1))...),
	}
	// A delta-downlink push: its chain base, as two raw frames, ahead of the
	// wire frames.
	chainAdmit := &walAdmit{
		admitRound: 3, baseRound: 2, clientID: 9, comp: true, effW: 1.5,
		chain: &updateBase{p: goldenVec(8, 2), bn: goldenVec(2, 0.75)},
		frames: append(
			quant.Encode(quant.QuantizeChunks(goldenVec(8, 0.25), 8, 4)),
			quant.EncodeRaw(goldenVec(2, 0.5))...),
	}
	edge := walEdgeBatch{
		pushID: 1 << 20, pushSeq: 3, baseRnd: 2, weight: 2.5, updates: 4,
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
	if a.admitRound != 3 || a.baseRound != 2 || a.clientID != 9 || !a.comp || a.effW != 1.5 || a.chain == nil {
		t.Fatalf("chain admit content: %+v", a)
	}
	for i, v := range goldenVec(8, 2) {
		if a.chain.p[i] != v {
			t.Fatalf("chain base params[%d] = %v, want %v", i, a.chain.p[i], v)
		}
	}
	if len(a.chain.bn) != 2 || a.chain.bn[1] != goldenVec(2, 0.75)[1] {
		t.Fatalf("chain base bn = %v", a.chain.bn)
	}
	wantChainFrames := append(
		quant.Encode(quant.QuantizeChunks(goldenVec(8, 0.25), 8, 4)),
		quant.EncodeRaw(goldenVec(2, 0.5))...)
	if !bytes.Equal(a.frames, wantChainFrames) {
		t.Fatalf("chain admit: frames did not round-trip verbatim (%d vs %d bytes)", len(a.frames), len(wantChainFrames))
	}

	_, _, payload, _, err = parseWALRecord(recs["fwl1_admit_frames.bin"])
	if err != nil {
		t.Fatal(err)
	}
	fa, err := parseWALAdmit(payload)
	if err != nil {
		t.Fatal(err)
	}
	if fa.admitRound != 4 || fa.baseRound != 3 || fa.clientID != 11 || !fa.comp || fa.effW != 0.5 {
		t.Fatalf("frame admit content: %+v", fa)
	}
	wantFrames := append(
		quant.Encode(quant.QuantizeChunks(goldenVec(8, 0.5), 8, 4)),
		quant.EncodeRaw(goldenVec(2, 1))...)
	if !bytes.Equal(fa.frames, wantFrames) {
		t.Fatalf("frame admit: frames did not round-trip verbatim (%d vs %d bytes)", len(fa.frames), len(wantFrames))
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
	if b.pushID != 1<<20 || b.pushSeq != 3 || b.baseRnd != 2 || b.weight != 2.5 || b.updates != 4 {
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

	if _, err := parseWALAdmit(make([]byte, 10)); !errors.Is(err, ErrWAL) {
		t.Fatalf("short admit: %v", err)
	}
	// No frame bytes behind the fixed header.
	emptyFrames := make([]byte, 21)
	emptyFrames[12] = walAdmitFrames
	if _, err := parseWALAdmit(emptyFrames); !errors.Is(err, ErrWAL) {
		t.Fatalf("admit with no frames: %v", err)
	}
	// A delta-form record of formats 1–2: frames flag clear, two raw delta
	// frames behind the fixed header.
	deltaForm := append(make([]byte, 21), quant.EncodeRaw(goldenVec(3, 1))...)
	deltaForm = append(deltaForm, quant.EncodeRaw(goldenVec(2, 1))...)
	deltaForm[12] = walAdmitComp
	if _, err := parseWALAdmit(deltaForm); !errors.Is(err, ErrWAL) {
		t.Fatalf("delta-form admit: %v", err)
	}
	// A chain record whose base stops after the params frame.
	chainCut := append(make([]byte, 21), quant.EncodeRaw(goldenVec(3, 1))...)
	chainCut[12] = walAdmitFrames | walAdmitChain
	if _, err := parseWALAdmit(chainCut); !errors.Is(err, ErrWAL) {
		t.Fatalf("chain admit with a truncated base: %v", err)
	}
	// Unknown flag bits: refused rather than silently reinterpreted by a
	// future reader that assigns them meaning.
	unknownFlags := make([]byte, 22)
	unknownFlags[12] = walAdmitFrames | 0x80
	if _, err := parseWALAdmit(unknownFlags); !errors.Is(err, ErrWAL) {
		t.Fatalf("unknown admit flags: %v", err)
	}
	if _, err := parseWALEdgeBatch(make([]byte, 10)); !errors.Is(err, ErrWAL) {
		t.Fatalf("short edge batch: %v", err)
	}
}

// TestWALMetaFormatCompat pins the log format level: this binary writes and
// reads format 3 (18-byte meta payload) only. Formats 1 (17 bytes, no format
// byte) and 2 hold delta-form admissions and are refused with an error naming
// their format; a future format is refused instead of misread.
func TestWALMetaFormatCompat(t *testing.T) {
	m := walMeta{async: true, quorumOrK: 3, maxStale: 5, nParams: 100, nBN: 4}
	p := appendWALMeta(nil, m)
	if len(p) != 18 || p[17] != 3 || walFormat != 3 {
		t.Fatalf("meta payload %d bytes, final byte %d; want 18 and format 3", len(p), p[len(p)-1])
	}
	got, err := parseWALMeta(p)
	if err != nil || got != m {
		t.Fatalf("parseWALMeta round-trip: %+v err %v", got, err)
	}
	for format, meta := range map[int][]byte{
		1: p[:17],
		2: append(append([]byte(nil), p[:17]...), 2),
		4: append(append([]byte(nil), p[:17]...), 4),
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
// whatever it holds, and a segment whose meta record names format 2 (the
// segment holds the meta, the initial commit and a delta-form admission;
// recovery fails with ErrWAL naming the format instead of truncating the
// segment at its first delta record).
func TestRecoverRefusesOldFormatUntouched(t *testing.T) {
	meta := appendWALMeta(nil, walMeta{async: true, quorumOrK: 3, maxStale: 2, nParams: 6, nBN: 2})
	meta[17] = 2
	log := appendWALRecord(nil, walRecMeta, 0, meta)
	log = appendWALRecord(log, walRecCommit, 1, appendWALCommit(nil, walCommit{params: synthVec(6, 1), bn: synthVec(2, 2)}))
	delta := binary.LittleEndian.AppendUint32(nil, 0)  // admit round
	delta = binary.LittleEndian.AppendUint32(delta, 0) // base round
	delta = binary.LittleEndian.AppendUint32(delta, 7) // client
	delta = append(delta, walAdmitComp)                // flags: no frames bit
	delta = binary.LittleEndian.AppendUint64(delta, math.Float64bits(1))
	delta = quant.AppendRaw(delta, synthVec(6, 3))
	delta = quant.AppendRaw(delta, synthVec(2, 4))
	log = appendWALRecord(log, walRecAdmit, 2, delta)

	for name, wantErr := range map[string]string{
		walOldLogName: "single-file wal.log",
		walSegName(0): "format 2 ",
	} {
		dir := t.TempDir()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, log, 0o644); err != nil {
			t.Fatal(err)
		}
		if !WALExists(dir) {
			t.Fatalf("%s: WALExists reports no log", name)
		}
		rec, err := RecoverServer(dir)
		if err == nil {
			rec.Close()
			t.Fatalf("%s: recovered a format-2 log", name)
		}
		if !errors.Is(err, ErrWAL) || !strings.Contains(err.Error(), wantErr) {
			t.Fatalf("%s: error %v, want ErrWAL naming %q", name, err, wantErr)
		}
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(after, log) {
			t.Fatalf("%s: refused log changed: %d bytes, was %d", name, len(after), len(log))
		}
		wantSegs := 1
		if name == walOldLogName {
			wantSegs = 0 // no fresh log beside the old one
		}
		if rounds, _ := walSegments(dir); len(rounds) != wantSegs {
			t.Fatalf("%s: refusal left segments %v", name, rounds)
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
		pushID: 42, pushSeq: 7, baseRnd: 3, weight: 1.25, updates: 2,
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
		out.weight != in.weight || out.updates != in.updates {
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
