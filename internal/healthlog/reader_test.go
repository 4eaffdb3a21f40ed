package healthlog

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"uniserver/internal/telemetry"
)

func TestReadLogRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	d, clock := newTestDaemon(&buf)
	for i := 0; i < 25; i++ {
		clock.Advance(time.Minute)
		d.Record(vec("core0", i%4))
	}
	vectors, err := ReadLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(vectors) != 25 {
		t.Fatalf("parsed %d vectors", len(vectors))
	}
	for i := 1; i < len(vectors); i++ {
		if !vectors[i].Time.After(vectors[i-1].Time) {
			t.Fatal("log order lost")
		}
	}
}

func TestReadLogSkipsBlankLines(t *testing.T) {
	v := telemetry.InfoVector{Component: "x", Time: time.Unix(5, 0)}
	line, err := v.MarshalLine()
	if err != nil {
		t.Fatal(err)
	}
	doc := "\n" + string(line) + "\n" + string(line)
	got, err := ReadLog(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("parsed %d", len(got))
	}
}

func TestReadLogReportsBadLine(t *testing.T) {
	v := telemetry.InfoVector{Component: "x"}
	line, _ := v.MarshalLine()
	doc := string(line) + "{broken\n"
	_, err := ReadLog(strings.NewReader(doc))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("error = %v, want line number", err)
	}
}

func TestSummarize(t *testing.T) {
	vectors := []telemetry.InfoVector{
		{Component: "core0", Time: time.Unix(100, 0), Errors: []telemetry.ErrorEvent{
			{Kind: telemetry.ErrCorrectable, Count: 3},
		}},
		{Component: "core1", Time: time.Unix(50, 0), Errors: []telemetry.ErrorEvent{
			{Kind: telemetry.ErrUncorrectable, Count: 1},
			{Kind: telemetry.ErrCrash, Count: 1},
		}},
		{Component: "core0", Time: time.Unix(200, 0)},
	}
	s := Summarize(vectors)
	if s.Vectors != 3 || s.Components != 2 {
		t.Fatalf("summary = %+v", s)
	}
	if s.Correctable != 3 || s.Uncorrectable != 1 || s.Crashes != 1 {
		t.Fatalf("error counts = %+v", s)
	}
	if !s.First.Equal(time.Unix(50, 0)) || !s.Last.Equal(time.Unix(200, 0)) {
		t.Fatalf("time range = %v..%v", s.First, s.Last)
	}
	if z := Summarize(nil); z.Vectors != 0 {
		t.Fatal("empty summary wrong")
	}
}
