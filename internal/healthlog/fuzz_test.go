package healthlog

import (
	"bytes"
	"testing"

	"uniserver/internal/telemetry"
)

// FuzzReadLog drives ReadLog, the decoder behind healthlogcat, over
// arbitrary bytes. It must never panic, and whatever it accepts must
// survive a round trip: the accepted vectors re-marshal to a log that
// reads back into vectors which re-marshal to the same bytes. The seed
// corpus (testdata/fuzz/FuzzReadLog) holds a log a daemon wrote, the
// same log with blank lines, a truncated line and a line that is not
// JSON.
func FuzzReadLog(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		vectors, err := ReadLog(bytes.NewReader(data))
		if err != nil {
			return
		}
		first := marshalLog(t, vectors)
		again, err := ReadLog(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("re-marshalled log does not read back: %v\n%s", err, first)
		}
		if len(again) != len(vectors) {
			t.Fatalf("re-read %d vectors, want %d", len(again), len(vectors))
		}
		if second := marshalLog(t, again); !bytes.Equal(first, second) {
			t.Fatalf("round trip moved bytes:\n%s\nvs\n%s", first, second)
		}
	})
}

// marshalLog renders vectors the way the daemon writes its logfile.
func marshalLog(t *testing.T, vectors []telemetry.InfoVector) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, v := range vectors {
		line, err := v.MarshalLine()
		if err != nil {
			t.Fatalf("accepted vector does not marshal: %v", err)
		}
		buf.Write(line)
	}
	return buf.Bytes()
}
