package wire

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"harvsim/internal/tracing"
)

// maxLine bounds one NDJSON line. Result lines are a few hundred bytes
// (a traced one adds a short span_ms map); the cap only keeps a corrupt
// stream from growing the read buffer without limit.
const maxLine = 1 << 20

// ErrNoSummary reports a result stream that ended before its summary
// line — the server died or the connection dropped mid-sweep.
var ErrNoSummary = errors.New("wire: stream ended without a summary")

// lines scans NDJSON lines of up to maxLine bytes.
func lines(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, maxLine)
	return sc
}

// ReadStream decodes a result stream (GET /v1/jobs/{id}/stream): it
// calls onResult for every result line in stream order and returns the
// summary line, which ends the stream. A malformed line, an unknown
// line type, a read error and a stream without a summary (ErrNoSummary)
// are all errors; results delivered before one stay delivered.
func ReadStream(r io.Reader, onResult func(Result)) (Summary, error) {
	sc := lines(r)
	for sc.Scan() {
		var probe struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(sc.Bytes(), &probe); err != nil {
			return Summary{}, fmt.Errorf("wire: bad stream line %q: %w", sc.Text(), err)
		}
		switch probe.Type {
		case LineResult:
			var res Result
			if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
				return Summary{}, fmt.Errorf("wire: bad result line: %w", err)
			}
			onResult(res)
		case LineSummary:
			var sum Summary
			if err := json.Unmarshal(sc.Bytes(), &sum); err != nil {
				return Summary{}, fmt.Errorf("wire: bad summary line: %w", err)
			}
			return sum, nil
		default:
			return Summary{}, fmt.Errorf("wire: unknown stream line type %q", probe.Type)
		}
	}
	if err := sc.Err(); err != nil {
		return Summary{}, err
	}
	return Summary{}, ErrNoSummary
}

// ReadSpans decodes a span stream (GET /v1/jobs/{id}/trace) into the
// spans it carries, skipping lines of any other type. A malformed line
// or a read error ends the read with an error, alongside the spans
// decoded before it.
func ReadSpans(r io.Reader) ([]tracing.Span, error) {
	var spans []tracing.Span
	sc := lines(r)
	for sc.Scan() {
		var ln SpanLine
		if err := json.Unmarshal(sc.Bytes(), &ln); err != nil {
			return spans, fmt.Errorf("wire: bad span line %q: %w", sc.Text(), err)
		}
		if ln.Type == LineSpan {
			spans = append(spans, SpanOf(ln))
		}
	}
	return spans, sc.Err()
}
