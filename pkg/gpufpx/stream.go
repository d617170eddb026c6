package gpufpx

// The streaming entry point of the facade, behind fpx-serve's streaming
// results API. RunStream emits the canonical report body incrementally —
// fragments are committed as the device→host channel delivers records, and
// the concatenation of every fragment byte-equals Report.ToolBody() (which
// is what the synchronous path serves).

import (
	"bytes"
	"context"

	"gpufpx/internal/fpx"
)

// StreamSink receives canonical report fragments, in order, on the run's
// launching goroutine. Concatenating every fragment yields exactly the
// bytes of the final tool report body (Report.ToolBody). Sinks must not
// retain the fragment slice past the call.
type StreamSink func(frag []byte)

// RunStream is Run with incremental results: detector records, analyzer
// flow events or shadow findings are encoded and handed to sink the moment
// the device→host channel delivers them, and the report tail is flushed
// when the run finishes. The returned report and error follow Run's
// contract exactly — same report bytes, same taxonomy — so callers can
// treat the stream as a pure addition.
//
// Only the detector, analyzer and shadow sanitizer have streamable record
// arrays; for the other tools sink receives the whole (empty) body contract
// of nothing — no fragments — and callers should fall back to the report
// itself. A nil sink degrades to Run.
func (s *Session) RunStream(ctx context.Context, src Source, sink StreamSink) (*Report, error) {
	if sink == nil {
		return s.run(ctx, src, nil, nil)
	}
	// The session is immutable; stream on a shallow copy whose tool config
	// carries the record hook. Any caller-provided hook still runs first.
	sess := *s
	var st *fpx.ReportStreamer
	switch s.tool {
	case toolDetector:
		st = fpx.NewDetectorStream(sink)
		prev := sess.detCfg.OnRecord
		sess.detCfg.OnRecord = func(r fpx.Record) {
			if prev != nil {
				prev(r)
			}
			st.Record(r)
		}
	case toolAnalyzer:
		st = fpx.NewAnalyzerStream(sink)
		prev := sess.anaCfg.OnEvent
		sess.anaCfg.OnEvent = func(ev fpx.FlowEvent) {
			if prev != nil {
				prev(ev)
			}
			st.Event(ev)
		}
	case toolShadow:
		st = fpx.NewShadowStream(sink)
		prev := sess.shaCfg.OnFinding
		sess.shaCfg.OnFinding = func(f fpx.Finding) {
			if prev != nil {
				prev(f)
			}
			st.Finding(f)
		}
	default:
		// No streamable record array; the report arrives whole.
		return sess.run(ctx, src, nil, nil)
	}
	return sess.run(ctx, src, st, nil)
}

// ToolBody renders the canonical tool report body — the detector or
// analyzer wire struct in the tools' canonical JSON style. This is the
// byte sequence RunStream's fragments concatenate to. Tools without a
// JSON report body (binfpe, memcheck, plain) return nil.
func (r *Report) ToolBody() []byte {
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		return nil
	}
	return buf.Bytes()
}
