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

// WriteProfileFile dumps the sink's engine profiler report. The report
// contains host wall times and is NOT deterministic across runs — it never
// belongs next to the metrics dump in a regression diff.
func (s *Sink) WriteProfileFile(path string) error {
	return writeFile(path, "profile", func(w io.Writer) error {
		_, err := s.prof.WriteTo(w)
		return err
	})
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
