package healthlog

import (
	"bufio"
	"fmt"
	"io"
	"time"

	"uniserver/internal/telemetry"
)

// ReadLog parses a HealthLog JSON-lines system logfile back into
// information vectors — the on-demand service: the daemon keeps no
// vector in memory, so historical data for training and post-mortems
// (cmd/healthlogcat) is read from the log. Blank lines are skipped; a
// malformed line aborts with its line number.
func ReadLog(r io.Reader) ([]telemetry.InfoVector, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	var out []telemetry.InfoVector
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		v, err := telemetry.UnmarshalLine(raw)
		if err != nil {
			return nil, fmt.Errorf("healthlog: line %d: %w", line, err)
		}
		out = append(out, v)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("healthlog: reading log: %w", err)
	}
	return out, nil
}

// LogSummary aggregates a parsed logfile.
type LogSummary struct {
	Vectors       int
	Components    int
	Correctable   int
	Uncorrectable int
	Crashes       int
	First, Last   time.Time
}

// Summarize computes a LogSummary.
func Summarize(vectors []telemetry.InfoVector) LogSummary {
	var s LogSummary
	comps := map[string]bool{}
	for i, v := range vectors {
		s.Vectors++
		comps[v.Component] = true
		for _, e := range v.Errors {
			switch e.Kind {
			case telemetry.ErrCorrectable:
				s.Correctable += e.Count
			case telemetry.ErrUncorrectable:
				s.Uncorrectable += e.Count
			case telemetry.ErrCrash:
				s.Crashes += e.Count
			}
		}
		if i == 0 || v.Time.Before(s.First) {
			s.First = v.Time
		}
		if v.Time.After(s.Last) {
			s.Last = v.Time
		}
	}
	s.Components = len(comps)
	return s
}
