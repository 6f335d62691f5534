package core

import (
	"testing"

	"fedprophet/internal/fl"
)

// Quantized uploads (§8's low-bit composition) must cut communication by
// roughly the bit ratio while keeping the model trainable.
func TestFedProphetQuantizedUploads(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	mk := func(bits int) fl.MethodParams {
		p := microParams(3, 3, 2, 16, 2)
		p.UploadBits = bits
		return p
	}

	full := mustRun(t, New(mk(0)), microEnv(t, 31))
	q8 := mustRun(t, New(mk(8)), microEnv(t, 31))

	cFull := full.Extra["comm_up_bytes"]
	cQ8 := q8.Extra["comm_up_bytes"]
	if cFull <= 0 || cQ8 <= 0 {
		t.Fatalf("communication accounting missing: %v %v", cFull, cQ8)
	}
	// 8-bit codes vs 4-byte floats: ≥3x saving even with headers and
	// uncompressed BN statistics.
	if cQ8 >= cFull/2 {
		t.Fatalf("8-bit uploads should at least halve traffic: %v vs %v", cQ8, cFull)
	}
	// Training must still work: accuracy within a wide band of the
	// unquantized run (both are tiny runs, so allow slack).
	if q8.CleanAcc < full.CleanAcc-0.25 {
		t.Fatalf("8-bit quantization destroyed training: %v vs %v", q8.CleanAcc, full.CleanAcc)
	}
}

// Chunked upload quantization (the wire codec's form) must deliver the same
// order of communication saving as whole-vector quantization and keep
// training intact.
func TestFedProphetChunkedUploads(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	mk := func(bits, chunk int) fl.MethodParams {
		p := microParams(3, 3, 2, 16, 2)
		p.UploadBits, p.UploadChunk = bits, chunk
		return p
	}

	full := mustRun(t, New(mk(0, 0)), microEnv(t, 37))
	q4 := mustRun(t, New(mk(4, 64)), microEnv(t, 37))

	cFull := full.Extra["comm_up_bytes"]
	cQ4 := q4.Extra["comm_up_bytes"]
	if cFull <= 0 || cQ4 <= 0 {
		t.Fatalf("communication accounting missing: %v %v", cFull, cQ4)
	}
	// 4-bit codes vs 4-byte floats: well over 4x even charging per-chunk
	// scales.
	if cQ4 >= cFull/4 {
		t.Fatalf("chunked 4-bit uploads should cut traffic ≥4x: %v vs %v", cQ4, cFull)
	}
	if q4.CleanAcc < full.CleanAcc-0.25 {
		t.Fatalf("chunked 4-bit quantization destroyed training: %v vs %v", q4.CleanAcc, full.CleanAcc)
	}
}

func TestCommBytesGrowWithRounds(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	mk := func(rpm int) fl.MethodParams { return microParams(rpm, rpm, 2, 8, 1) }
	short := mustRun(t, New(mk(1)), microEnv(t, 33))
	long := mustRun(t, New(mk(3)), microEnv(t, 33))
	if long.Extra["comm_up_bytes"] <= short.Extra["comm_up_bytes"] {
		t.Fatalf("more rounds must upload more: %v vs %v",
			short.Extra["comm_up_bytes"], long.Extra["comm_up_bytes"])
	}
}
