package telemetry

import (
	"fmt"
	"io"
	"os"
)

// Export helpers for the command binaries: each writes one artifact of the
// sink to a file. Paths are only touched when non-empty, so commands can
// pass flag values straight through.

// WriteMetricsFile dumps the sink's registry in its deterministic text
// format.
func (s *Sink) WriteMetricsFile(path string) error {
	return writeFile(path, "metrics", func(w io.Writer) error {
		_, err := s.reg.WriteTo(w)
		return err
	})
}

// WriteTraceFile dumps the sink's recorder as Chrome trace-event JSON,
// loadable in Perfetto or chrome://tracing. The recorder must have been
// enabled before the run or the file holds no events.
func (s *Sink) WriteTraceFile(path string) error {
	return writeFile(path, "trace", s.rec.WriteChromeTrace)
}

func writeFile(path, kind string, write func(io.Writer) error) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := write(f); err != nil {
		return fmt.Errorf("telemetry: writing %s to %s: %w", kind, path, err)
	}
	return f.Close()
}
