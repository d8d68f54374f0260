// Package jsonw is the append-style JSON writer the observability
// exporters share. It renders strings and floats byte for byte as
// encoding/json does (HTML escaping on), and Writer streams an indented
// document with the layout of an encoding/json Encoder after
// SetIndent("", indent), without ever holding the document in memory.
//
// The exporters keep their encoding/json renderers as test oracles and
// compare against them; this package carries no schema of its own.
package jsonw

import (
	"bufio"
	"io"
	"math"
	"strconv"
	"unicode/utf8"
)

const hexDigits = "0123456789abcdef"

// AppendString appends s as encoding/json renders a string: `"\<>&`
// and control bytes escaped, invalid UTF-8 replaced by \ufffd, U+2028
// and U+2029 escaped.
func AppendString(b []byte, s string) []byte {
	if isPlain(s) {
		b = append(b, '"')
		b = append(b, s...)
		return append(b, '"')
	}
	return appendEscaped(b, s)
}

// isPlain reports whether s renders as itself between quotes.
func isPlain(s string) bool {
	for i := 0; i < len(s); i++ {
		if !plainByte(s[i]) {
			return false
		}
	}
	return true
}

// plainByte reports whether c renders as itself inside a string.
func plainByte(c byte) bool {
	return c >= 0x20 && c < utf8.RuneSelf && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
}

func appendEscaped(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// AppendFloat appends a finite f as encoding/json renders a float64:
// 'f' format, or 'e' below 1e-6 and from 1e21 up, with a two-digit
// negative exponent trimmed (e-07 -> e-7). Callers reject NaN and
// infinities before writing, as encoding/json refuses them.
func AppendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// Finite reports whether f can be written (encoding/json rejects NaN
// and infinities).
func Finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// spillAt is the rendered size at which a closed container is handed
// to the bufio.Writer.
const spillAt = 4 << 10

// Writer streams one indented JSON value. Values are rendered into a
// reused buffer and handed to a bufio.Writer as containers close, so
// memory stays constant whatever the document size. Write errors are
// sticky in the bufio.Writer and reported by Finish.
//
// The caller drives the structure: Key before every object member's
// value, Begin/End pairs balanced. Keys are written verbatim between
// quotes, so they must be plain ASCII names.
type Writer struct {
	bw     *bufio.Writer
	b      []byte
	indent string
	depth  int
	empty  bool // the innermost open container has no element yet
	keyed  bool // a key was just written: its value follows on the line
}

// NewWriter returns a Writer to w that indents each nesting level with
// indent (which must be non-empty).
func NewWriter(w io.Writer, indent string) *Writer {
	return &Writer{bw: bufio.NewWriterSize(w, 64<<10), b: make([]byte, 0, 2*spillAt), indent: indent}
}

// newline starts a line at the current depth.
func (w *Writer) newline() {
	w.b = append(w.b, '\n')
	for i := 0; i < w.depth; i++ {
		w.b = append(w.b, w.indent...)
	}
}

// elem places a value: after its key, or as the next array element.
func (w *Writer) elem() {
	switch {
	case w.keyed:
		w.keyed = false
	case w.depth > 0:
		if !w.empty {
			w.b = append(w.b, ',')
		}
		w.newline()
	}
	w.empty = false
}

// Key starts the object member name; its value is the next call.
func (w *Writer) Key(name string) {
	if !w.empty {
		w.b = append(w.b, ',')
	}
	w.newline()
	w.b = append(w.b, '"')
	w.b = append(w.b, name...)
	w.b = append(w.b, '"', ':', ' ')
	w.empty = false
	w.keyed = true
}

// BeginObject opens an object value.
func (w *Writer) BeginObject() { w.open('{') }

// EndObject closes the innermost object.
func (w *Writer) EndObject() { w.close('}') }

// BeginArray opens an array value.
func (w *Writer) BeginArray() { w.open('[') }

// EndArray closes the innermost array.
func (w *Writer) EndArray() { w.close(']') }

func (w *Writer) open(c byte) {
	w.elem()
	w.b = append(w.b, c)
	w.depth++
	w.empty = true
}

// close ends a container ({} or [] when it stayed empty) and spills
// the buffer once it has grown past spillAt.
func (w *Writer) close(c byte) {
	w.depth--
	if !w.empty {
		w.newline()
	}
	w.b = append(w.b, c)
	w.empty = false
	if len(w.b) >= spillAt {
		w.spill()
	}
}

func (w *Writer) spill() {
	_, _ = w.bw.Write(w.b) // sticky in bw; Finish reports it
	w.b = w.b[:0]
}

// String writes a string value.
func (w *Writer) String(s string) {
	w.elem()
	w.b = AppendString(w.b, s)
}

// StringFunc writes a string value whose text appendText appends to a
// buffer, rendered as String renders that text but without building it
// as a string first.
func (w *Writer) StringFunc(appendText func([]byte) []byte) {
	w.elem()
	start := len(w.b)
	w.b = append(w.b, '"')
	w.b = appendText(w.b)
	for _, c := range w.b[start+1:] {
		if !plainByte(c) {
			w.b = appendEscaped(w.b[:start], string(w.b[start+1:]))
			return
		}
	}
	w.b = append(w.b, '"')
}

// Int writes an integer value.
func (w *Writer) Int(n int) {
	w.elem()
	w.b = strconv.AppendInt(w.b, int64(n), 10)
}

// Float writes a finite float value.
func (w *Writer) Float(f float64) {
	w.elem()
	w.b = AppendFloat(w.b, f)
}

// Null writes null.
func (w *Writer) Null() {
	w.elem()
	w.b = append(w.b, "null"...)
}

// Finish ends the document with the newline an encoding/json Encoder
// writes after each value, flushes, and returns the first write error.
func (w *Writer) Finish() error {
	w.b = append(w.b, '\n')
	w.spill()
	return w.bw.Flush()
}

// Array writes xs as an array, each element by elem, or null when xs is
// nil — encoding/json's rendering of a slice.
func Array[T any](w *Writer, xs []T, elem func(*T, *Writer)) {
	if xs == nil {
		w.Null()
		return
	}
	w.BeginArray()
	for i := range xs {
		elem(&xs[i], w)
	}
	w.EndArray()
}
