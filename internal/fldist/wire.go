package fldist

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"

	"fedprophet/internal/quant"
)

// Compression configures the compressed delta form of a client's wire
// protocol: model bodies travel as chunk-quantized frames instead of raw
// float64 frames, and pushes carry quantized *deltas* against the pulled
// global model with client-side error feedback. See docs/WIRE.md for the
// byte-level specification.
type Compression struct {
	// Bits is the quantization width, 2..8.
	Bits int
	// Chunk is the number of values per quantization scale; 0 selects
	// quant.DefaultChunk. Smaller chunks confine outliers better but spend one
	// float64 scale per chunk of wire space.
	Chunk int
	// TopK, when > 0, sparsifies the uplink: each push carries only the K
	// largest-magnitude coordinates of the error-fed delta as a sparse FPQ1
	// frame, with the client-side error-feedback residual absorbing every
	// coordinate sparsification drops. 0 sends dense frames.
	TopK int
	// Delta switches the downlink to per-client delta pulls: the client
	// declares the round of the chain base it holds and receives only the
	// quantized, error-fed global delta(s) against that base (docs/WIRE.md,
	// "Delta downlink"). A client without a usable base receives the chain
	// base itself, raw, as a cold pull.
	Delta bool
}

// less orders Compression values by (Bits, Chunk, TopK, Delta) — an
// arbitrary but total order, used wherever variants collected from a map
// must serialize deterministically (WAL commit records).
func (c Compression) less(o Compression) bool {
	if c.Bits != o.Bits {
		return c.Bits < o.Bits
	}
	if c.Chunk != o.Chunk {
		return c.Chunk < o.Chunk
	}
	if c.TopK != o.TopK {
		return c.TopK < o.TopK
	}
	return !c.Delta && o.Delta
}

// maxChunk bounds the accepted chunk size: beyond a million values per
// scale, chunking is indistinguishable from whole-vector quantization and
// huge header-supplied values only serve to stress the server.
const maxChunk = 1 << 20

// maxTopK bounds the accepted uplink sparsity: beyond 16M coordinates the
// header-supplied value no longer describes any plausible model and only
// serves to stress the server.
const maxTopK = 1 << 24

// normalize applies defaults and validates the configuration.
func (c Compression) normalize() (Compression, error) {
	if c.Chunk == 0 {
		c.Chunk = quant.DefaultChunk
	}
	if c.Bits < 2 || c.Bits > 8 {
		return c, fmt.Errorf("fldist: compression bits %d outside [2,8]", c.Bits)
	}
	if c.Chunk < 1 || c.Chunk > maxChunk {
		return c, fmt.Errorf("fldist: compression chunk %d outside [1,%d]", c.Chunk, maxChunk)
	}
	if c.TopK < 0 || c.TopK > maxTopK {
		return c, fmt.Errorf("fldist: compression topk %d outside [0,%d]", c.TopK, maxTopK)
	}
	return c, nil
}

// serveKey is the served-variant identity of a negotiated Compression.
// Without Delta, TopK shapes only what the *client* sends — every uplink-only
// top-k client pulls the same dense body (and pushes against the same dense
// base) as a plain client at the same (bits, chunk), so TopK is erased from
// the key and they share one cache entry and one downlink-EF chain. With
// Delta, TopK shapes the served delta frames themselves and stays in the key.
func (c Compression) serveKey() Compression {
	if !c.Delta {
		c.TopK = 0
	}
	return c
}

// Wire negotiation and body framing constants. A client that wants
// compression sends `X-Fldist-Codec: fpq1;bits=B;chunk=C` on GET /model;
// a server that honors it echoes the same header on the response and will
// accept a delta-encoded POST /update at those parameters for that round.
// Absent the echo, the body's frames are raw and the client pushes raw
// frames — that is how a codec client and a server without it interoperate.
const (
	codecHeader = "X-Fldist-Codec"
	codecName   = "fpq1"

	// retryHeader marks a 409 that is a transient server-side condition (a
	// buffered commit still being published), not a staleness verdict: the
	// same push body may be re-sent as-is. Clients that ignore it and treat
	// the 409 as stale still behave correctly, just wastefully.
	retryHeader = "X-Fldist-Retry"

	// serverHeader names the answering server instance on /round and push
	// answers, so a waiting client can tell a restart (awaitRoundAfter).
	serverHeader = "X-Fldist-Server"

	contentTypeModel = "application/x-fldist-model"
	contentTypeDelta = "application/x-fldist-delta"
	// contentTypeModelDelta marks a catch-up pull body: an FPD1 envelope of
	// per-round delta frames against the chain base the client declared,
	// instead of a full FPM1 model body.
	contentTypeModelDelta = "application/x-fldist-mdelta"

	modelMagic  = "FPM1"
	updateMagic = "FPU1"
	deltaMagic  = "FPD1"
	envVersion  = 1

	// updateHeaderLen is the FPU1 header: magic, version, u32 client id,
	// u32 round, f64 weight.
	updateHeaderLen = 21
)

// codecValue formats the negotiation header value. New parameters are only
// emitted when set, so a client at the PR-3 parameter set produces the exact
// header an old server accepts; a server that predates a parameter answers
// 400 to it (parseCodec's unknown-parameter rule) rather than silently
// serving the wrong protocol — the client operator hears about the
// downgrade instead of debugging a hung delta chain.
func codecValue(c Compression) string {
	v := fmt.Sprintf("%s;bits=%d;chunk=%d", codecName, c.Bits, c.Chunk)
	if c.TopK > 0 {
		v += ";topk=" + strconv.Itoa(c.TopK)
	}
	if c.Delta {
		v += ";delta=1"
	}
	return v
}

// parseCodec parses a negotiation header value. An empty value reports
// ok=false with no error (no compression requested); a malformed or
// unsupported value reports an error so the server can answer 400 rather
// than silently downgrading a client that asked for compression. The parse
// walks the string with strings.Cut instead of splitting into a slice — it
// runs on the pull hot path of every compressed GET /model, where a
// per-request allocation is measurable at high fan-out.
//
// base is per-request state, not part of the codec identity: a delta-pull
// client appends `;base=R` to declare the round of the chain base it holds.
// Absent, base reports −1 (no usable base — serve the chain cold).
func parseCodec(v string) (c Compression, base int, ok bool, err error) {
	base = -1
	v = strings.TrimSpace(v)
	if v == "" {
		return Compression{}, base, false, nil
	}
	name, rest, _ := strings.Cut(v, ";")
	if strings.TrimSpace(name) != codecName {
		return Compression{}, base, false, fmt.Errorf("fldist: unsupported codec %q", name)
	}
	for rest != "" {
		var p string
		p, rest, _ = strings.Cut(rest, ";")
		k, val, found := strings.Cut(strings.TrimSpace(p), "=")
		if !found {
			return Compression{}, base, false, fmt.Errorf("fldist: malformed codec parameter %q", p)
		}
		n, err := strconv.Atoi(val)
		if err != nil {
			return Compression{}, base, false, fmt.Errorf("fldist: codec parameter %q: %w", p, err)
		}
		switch k {
		case "bits":
			c.Bits = n
		case "chunk":
			c.Chunk = n
		case "topk":
			c.TopK = n
		case "delta":
			if n != 1 {
				return Compression{}, base, false, fmt.Errorf("fldist: codec parameter delta=%d, want 1", n)
			}
			c.Delta = true
		case "base":
			if n < 0 {
				return Compression{}, base, false, fmt.Errorf("fldist: codec parameter base=%d negative", n)
			}
			base = n
		default:
			return Compression{}, base, false, fmt.Errorf("fldist: unknown codec parameter %q", k)
		}
	}
	c, err = c.normalize()
	if err != nil {
		return Compression{}, -1, false, err
	}
	return c, base, true, nil
}

// rawModelEnvelope frames a model pull whose two frames are raw: a fixed
// header carrying the round, then the exact parameter and BN-statistics
// vectors. It is the body of every uncompressed pull — the snapshot's, and a
// delta chain's cold head.
func rawModelEnvelope(round int, params, bn []float64) []byte {
	buf := make([]byte, 0, 9+2*quant.FrameHeaderSize+8*(len(params)+len(bn)))
	buf = append(buf, modelMagic...)
	buf = append(buf, envVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(round))
	buf = quant.AppendRaw(buf, params)
	return quant.AppendRaw(buf, bn)
}

// Decoding of these envelopes is streaming-only: the server parses pushes in
// handleUpdate (header: parseUpdateHeader) and the client parses pulls in
// streamModelEnvelope, both on quant.StreamDecoder, so there is exactly one
// parser per direction.

// encodeUpdateEnvelope frames a push; rawUpdate is its raw-frame form.
func encodeUpdateEnvelope(clientID, round int, weight float64, params, bn []byte) ([]byte, error) {
	if clientID < 0 || int64(clientID) > math.MaxUint32 {
		return nil, fmt.Errorf("fldist: client id %d not representable on the wire", clientID)
	}
	buf := make([]byte, 0, updateHeaderLen+len(params)+len(bn))
	buf = append(buf, updateMagic...)
	buf = append(buf, envVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(clientID))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(round))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(weight))
	buf = append(buf, params...)
	buf = append(buf, bn...)
	return buf, nil
}

// parseUpdateHeader parses the FPU1 header at the head of a push body — the
// push handler's and WAL replay's one reading of it.
func parseUpdateHeader(h []byte) (clientID, round int, weight float64, err error) {
	switch {
	case len(h) < updateHeaderLen:
		return 0, 0, 0, fmt.Errorf("fldist: update envelope header: %d bytes, want %d", len(h), updateHeaderLen)
	case string(h[:4]) != updateMagic:
		return 0, 0, 0, fmt.Errorf("fldist: update envelope magic %q", h[:4])
	case h[4] != envVersion:
		return 0, 0, 0, fmt.Errorf("fldist: update envelope version %d, want %d", h[4], envVersion)
	}
	return int(binary.LittleEndian.Uint32(h[5:9])), int(binary.LittleEndian.Uint32(h[9:13])),
		math.Float64frombits(binary.LittleEndian.Uint64(h[13:21])), nil
}

// rawUpdate frames a raw push: the trained vectors themselves, exact, as two
// raw frames — what a client without a negotiated codec, and an edge, send.
func rawUpdate(clientID, round int, weight float64, params, bn []float64) ([]byte, error) {
	return encodeUpdateEnvelope(clientID, round, weight, quant.EncodeRaw(params), quant.EncodeRaw(bn))
}

// Stats is a point-in-time snapshot of the server's traffic and progress
// counters, served as JSON on GET /stats. Byte counts cover model-plane
// bodies only (pull responses and push requests), split by whether the
// compressed codec was in use, so operators can read the wire saving
// directly as BytesInRaw+BytesOutRaw vs BytesInCompressed+BytesOutCompressed.
// AdmitP50Micros/AdmitP99Micros are per-update admit-time percentiles
// (receive → counted toward the round) over a sliding window of recent
// admitted pushes — the same numbers the benchmark reports as
// fldist.admit_p50_us / fldist.admit_p99_us, so operators and the benchmark
// read one source. A server recovered from its WAL counts the admissions it
// replays in the byte and update counters as the live handler counted them,
// but they carry no admit-latency sample. Every field is backed by an atomic
// or the immutable model snapshot: polling /stats never blocks aggregation.
type Stats struct {
	Round              int     `json:"round"`
	RoundsCompleted    int     `json:"rounds_completed"`
	DuplicatesDropped  int     `json:"duplicates_dropped"`
	Shards             int     `json:"shards"`
	BytesInRaw         int64   `json:"bytes_in_raw"`
	BytesInCompressed  int64   `json:"bytes_in_compressed"`
	BytesOutRaw        int64   `json:"bytes_out_raw"`
	BytesOutCompressed int64   `json:"bytes_out_compressed"`
	UpdatesRaw         int64   `json:"updates_raw"`
	UpdatesCompressed  int64   `json:"updates_compressed"`
	AdmitP50Micros     float64 `json:"admit_p50_us"`
	AdmitP99Micros     float64 `json:"admit_p99_us"`

	// Per-frame-form splits of the compressed byte counters (each is a
	// subset of the matching *Compressed total, so the dense share is the
	// difference): BytesInSparse covers pushes whose params frame arrived in
	// the sparse top-k form; BytesOutDelta covers catch-up pull bodies (FPD1
	// delta envelopes); BytesOutCold covers delta-mode cold pulls (the raw
	// chain base a returning client without a usable base receives).
	// UpdatesSparse / DeltaPulls / ColdPulls count the same events.
	BytesInSparse int64 `json:"bytes_in_sparse"`
	UpdatesSparse int64 `json:"updates_sparse"`
	BytesOutDelta int64 `json:"bytes_out_delta"`
	BytesOutCold  int64 `json:"bytes_out_cold"`
	DeltaPulls    int64 `json:"delta_pulls"`
	ColdPulls     int64 `json:"cold_pulls"`

	// PullP50Micros/PullP99Micros are per-pull serve-time percentiles
	// (request parse → body written) over the same sliding-window ring as
	// the admit percentiles; ServedBuilds counts served-model cache builds
	// (compressed variants only), so a cache-rebuild storm — many builds per
	// round — is visible instead of hiding inside pull tail latency.
	PullP50Micros float64 `json:"pull_p50_us"`
	PullP99Micros float64 `json:"pull_p99_us"`
	ServedBuilds  int64   `json:"served_builds"`

	// Buffered is the buffered-aggregation section, non-nil exactly when
	// the server runs WithBufferedAggregation — presence is the mode
	// indicator, so a legal MaxStaleness of 0 is still distinguishable from
	// "not buffered", and a synchronous server's JSON payload is unchanged.
	Buffered *BufferedStats `json:"buffered,omitempty"`

	// WAL is the durability section, non-nil exactly when the server runs
	// with a write-ahead log (WithWAL / RecoverServer). Broken flags a log
	// that took a write error and stopped accepting records — the server
	// keeps serving, but a crash from that point loses what the log missed.
	WAL *WALStats `json:"wal,omitempty"`

	// Upstream is the tier section, non-nil exactly when these stats come
	// from an edge aggregator (Edge.Stats / GET /stats on an edge): the
	// edge's client-side view of its upstream server. Like every other
	// section it is backed by atomics only — polling an edge's /stats never
	// blocks cohort admission or an in-flight upstream flush.
	Upstream *UpstreamStats `json:"upstream,omitempty"`
}

// BufferedStats is the buffered bounded-staleness section of Stats.
// StalenessHist[s] counts admitted updates whose base round was s rounds
// behind the current round at admission, s ∈ [0, MaxStaleness];
// StaleRejected counts pushes 409-ed for falling outside the window — each
// one is a training pass some client threw away.
type BufferedStats struct {
	BufferSize    int     `json:"buffer_size"`
	MaxStaleness  int     `json:"max_staleness"`
	StaleRejected int64   `json:"stale_rejected"`
	StalenessHist []int64 `json:"staleness_hist"`
}

// WALStats is the write-ahead-log section of Stats. Records/Commits/Admits/
// Bytes count what has been appended since this process opened the log (not
// since the log was created); LastCommitRound is the round of the newest
// durable commit record; PendingAdmits is the number of admission records
// logged since that commit — exactly the updates RecoverServer would replay
// if the process died now. WriteErrors counts refused appends after the
// first failure; Broken mirrors the sticky error state.
type WALStats struct {
	Dir             string `json:"dir"`
	Records         int64  `json:"records"`
	Commits         int64  `json:"commits"`
	Admits          int64  `json:"admits"`
	Bytes           int64  `json:"bytes"`
	WriteErrors     int64  `json:"write_errors"`
	Broken          bool   `json:"broken"`
	LastCommitRound int64  `json:"last_commit_round"`
	PendingAdmits   int64  `json:"pending_admits"`
}

// UpstreamStats is the hierarchical-aggregation section of an edge's Stats:
// everything the edge has done as a *client* of its upstream server. Pushes
// counts combined cohort deltas admitted upstream; Rebased counts flushes
// whose base fell out of the upstream staleness window mid-buffer and were
// re-expressed against a freshly pulled base instead of being thrown away;
// Retries counts the waits of the edge's upstream client before a re-send —
// each time the upstream could not answer yet: no response, a 502, 503 or
// 504, or a retry-marked 409 (see Client.send). FlushK / FlushAge / FlushDrain split the flushes by what
// triggered them (buffer depth K, oldest-update age T, graceful drain).
// CohortPulls counts cohort GET /model requests served from the edge's
// pull-through cache — every one of them is a pull the root did not see.
// Buffered is the live depth of the cohort buffer awaiting the next flush.
type UpstreamStats struct {
	URL         string `json:"url"`
	Cohort      string `json:"cohort,omitempty"`
	BaseRound   int    `json:"base_round"`
	Pushes      int64  `json:"pushes"`
	Retries     int64  `json:"retries"`
	Rebased     int64  `json:"rebased"`
	FlushK      int64  `json:"flush_k"`
	FlushAge    int64  `json:"flush_age"`
	FlushDrain  int64  `json:"flush_drain"`
	CohortPulls int64  `json:"cohort_pulls"`
	Buffered    int64  `json:"buffered"`
}
