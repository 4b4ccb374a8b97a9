// Package oplog is the service-side structured logger: leveled JSON lines
// with a fixed field order (ts, level, msg, then bound fields, then
// call-site fields), one line per event, safe for concurrent use. It
// replaces the daemon's unstructured logf so every line carries the request
// and campaign ids the flight recorder threads through the stack.
//
// Like everything under internal/telemetry/ops it is wall-clock,
// ops-side-only machinery: simlint's rules table (forbidden) keeps it out
// of deterministic packages.
package oplog

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// Level orders log severities.
type Level int32

const (
	Debug Level = iota
	Info
	Warn
	Error
)

// String returns the level's wire name.
func (l Level) String() string {
	switch l {
	case Debug:
		return "debug"
	case Info:
		return "info"
	case Warn:
		return "warn"
	case Error:
		return "error"
	}
	return fmt.Sprintf("level(%d)", int32(l))
}

// ParseLevel maps a wire name back to a Level.
func ParseLevel(s string) (Level, error) {
	switch s {
	case "debug":
		return Debug, nil
	case "info":
		return Info, nil
	case "warn":
		return Warn, nil
	case "error":
		return Error, nil
	}
	return Info, fmt.Errorf("oplog: unknown level %q (want debug|info|warn|error)", s)
}

// Field is one key/value pair on a log line. Values marshal with
// encoding/json; a value that cannot marshal renders as its fmt.Sprintf
// form — a log line never fails.
type Field struct {
	Key string
	Val any
}

// F builds a Field.
func F(key string, val any) Field { return Field{Key: key, Val: val} }

// Logger writes JSON log lines at or above its minimum level. The zero
// value and nil are inert (every method no-ops), so callers can hold a
// logger unconditionally. With shares the parent's writer and mutex, so
// derived loggers interleave whole lines.
type Logger struct {
	mu     *sync.Mutex
	w      io.Writer
	min    Level
	fields []Field
	now    func() time.Time
}

// New returns a logger writing to w at minimum level min. A nil writer
// yields an inert logger.
func New(w io.Writer, min Level) *Logger {
	if w == nil {
		return nil
	}
	return &Logger{mu: &sync.Mutex{}, w: w, min: min, now: time.Now}
}

// With returns a logger that stamps fields onto every line it writes, after
// the parent's bound fields.
func (l *Logger) With(fields ...Field) *Logger {
	if l == nil || len(fields) == 0 {
		return l
	}
	bound := make([]Field, 0, len(l.fields)+len(fields))
	bound = append(bound, l.fields...)
	bound = append(bound, fields...)
	return &Logger{mu: l.mu, w: l.w, min: l.min, fields: bound, now: l.now}
}

// Debug logs at Debug level.
func (l *Logger) Debug(msg string, fields ...Field) { l.log(Debug, msg, fields) }

// Info logs at Info level.
func (l *Logger) Info(msg string, fields ...Field) { l.log(Info, msg, fields) }

// Warn logs at Warn level.
func (l *Logger) Warn(msg string, fields ...Field) { l.log(Warn, msg, fields) }

// Error logs at Error level.
func (l *Logger) Error(msg string, fields ...Field) { l.log(Error, msg, fields) }

func (l *Logger) log(lv Level, msg string, fields []Field) {
	if l == nil || l.w == nil || lv < l.min {
		return
	}
	var b []byte
	b = append(b, `{"ts":`...)
	b = appendJSON(b, l.now().UTC().Format(time.RFC3339Nano))
	b = append(b, `,"level":`...)
	b = appendJSON(b, lv.String())
	b = append(b, `,"msg":`...)
	b = appendJSON(b, msg)
	for _, f := range l.fields {
		b = appendField(b, f)
	}
	for _, f := range fields {
		b = appendField(b, f)
	}
	b = append(b, '}', '\n')
	l.mu.Lock()
	l.w.Write(b)
	l.mu.Unlock()
}

func appendField(b []byte, f Field) []byte {
	b = append(b, ',')
	b = appendJSON(b, f.Key)
	b = append(b, ':')
	if blob, err := json.Marshal(f.Val); err == nil {
		return append(b, blob...)
	}
	return appendJSON(b, fmt.Sprintf("%v", f.Val))
}

// appendJSON appends v as a JSON string literal.
func appendJSON(b []byte, v string) []byte {
	blob, err := json.Marshal(v)
	if err != nil {
		return append(b, `"?"`...)
	}
	return append(b, blob...)
}
