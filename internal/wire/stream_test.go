package wire

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"harvsim/internal/tracing"
)

// ndjson renders values as one JSON line each.
func ndjson(t *testing.T, lines ...any) string {
	t.Helper()
	var b strings.Builder
	for _, v := range lines {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(data)
		b.WriteByte('\n')
	}
	return b.String()
}

func resultLine(i int) Result {
	return Result{Type: LineResult, Index: i, Name: "job", Metric: 1.5, Steps: 7}
}

// readAll runs ReadStream over s, collecting the result lines.
func readAll(s string) ([]Result, Summary, error) {
	var got []Result
	sum, err := ReadStream(strings.NewReader(s), func(r Result) { got = append(got, r) })
	return got, sum, err
}

func TestReadStreamComplete(t *testing.T) {
	in := ndjson(t, resultLine(1), resultLine(0), Summary{Type: LineSummary, V: Version, Jobs: 2, CacheHits: 1})
	got, sum, err := readAll(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Index != 1 || got[1].Index != 0 || got[0].Metric != 1.5 {
		t.Errorf("results %+v, want indices 1, 0 in stream order", got)
	}
	if sum.Jobs != 2 || sum.CacheHits != 1 {
		t.Errorf("summary %+v", sum)
	}
}

// TestReadStreamErrors: every way a stream can fail to prove a finished
// sweep is an error, and the results read before it stay delivered.
func TestReadStreamErrors(t *testing.T) {
	r0 := ndjson(t, resultLine(0))
	cases := []struct {
		name    string
		in      string
		results int
		is      error
		msg     string
	}{
		{"no summary", r0 + ndjson(t, resultLine(1)), 2, ErrNoSummary, "without a summary"},
		{"empty stream", "", 0, ErrNoSummary, "without a summary"},
		{"malformed line", r0 + "{\"type\":\"res\n", 1, nil, "bad stream line"},
		{"malformed result", r0 + `{"type":"result","index":"x"}` + "\n", 1, nil, "bad result line"},
		{"unknown type", r0 + `{"type":"progress","done":3}` + "\n", 1, nil, `unknown stream line type "progress"`},
		{"span in result stream", r0 + ndjson(t, SpanLine{Type: LineSpan}), 1, nil, `unknown stream line type "span"`},
	}
	for _, tc := range cases {
		got, _, err := readAll(tc.in)
		if err == nil {
			t.Errorf("%s: no error", tc.name)
			continue
		}
		if tc.is != nil && !errors.Is(err, tc.is) {
			t.Errorf("%s: error %v, want %v", tc.name, err, tc.is)
		}
		if !strings.Contains(err.Error(), tc.msg) {
			t.Errorf("%s: error %q should mention %q", tc.name, err, tc.msg)
		}
		if len(got) != tc.results {
			t.Errorf("%s: %d results delivered before the error, want %d", tc.name, len(got), tc.results)
		}
	}
}

// TestReadStreamLongLine: a result line over bufio's 64 KiB default
// token size (here a 200 KiB name) still decodes; the reader's cap is
// 1 MiB.
func TestReadStreamLongLine(t *testing.T) {
	long := resultLine(0)
	long.Name = strings.Repeat("n", 200<<10)
	got, _, err := readAll(ndjson(t, long, Summary{Type: LineSummary, Jobs: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Name != long.Name {
		t.Fatalf("long line decoded to %d results", len(got))
	}

	long.Name = strings.Repeat("n", 2<<20)
	if _, _, err := readAll(ndjson(t, long, Summary{Type: LineSummary, Jobs: 1})); err == nil {
		t.Fatal("a line over the 1 MiB cap must be an error")
	}
}

// TestReadSpans: span lines decode through SpanOf; lines of any other
// type are skipped; a malformed line is an error after the spans before
// it.
func TestReadSpans(t *testing.T) {
	start := time.UnixMicro(1_700_000_000_000_000)
	a := tracing.Span{Trace: "t", ID: "a", Name: "sweep", Job: -1, Start: start, Dur: 3 * time.Millisecond}
	b := tracing.Span{Trace: "t", ID: "b", Parent: "a", Name: "job", Job: 4, Start: start, Dur: time.Millisecond}
	in := ndjson(t, SpanLineOf(a), resultLine(0), SpanLineOf(b), Summary{Type: LineSummary})
	spans, err := ReadSpans(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 2 || spans[0] != a || spans[1] != b {
		t.Fatalf("spans %+v, want %+v then %+v", spans, a, b)
	}

	spans, err = ReadSpans(strings.NewReader(ndjson(t, SpanLineOf(a)) + "not json\n" + ndjson(t, SpanLineOf(b))))
	if err == nil || !strings.Contains(err.Error(), "bad span line") {
		t.Errorf("malformed span line: error %v", err)
	}
	if len(spans) != 1 {
		t.Errorf("%d spans before the malformed line, want 1", len(spans))
	}
}
