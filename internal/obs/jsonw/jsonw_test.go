package jsonw

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// TestAppendMatchesMarshal: strings and floats render as json.Marshal
// renders them, including every escape class and both float formats.
func TestAppendMatchesMarshal(t *testing.T) {
	strs := []string{"", "plain", "<script>", "a<b", "a&b>c", `q"b\s`, "\b\f\n\r\t\x00\x1f\x7f",
		"\u2028sep\u2029", "héllo ✓", "bad\xff\xfe", "cut\xe2\x82", "\xed\xa0\x80surrogate"}
	for _, s := range strs {
		want, _ := json.Marshal(s)
		if got := AppendString(nil, s); !bytes.Equal(got, want) {
			t.Errorf("AppendString(%q) = %s, want %s", s, got, want)
		}
	}
	// StringFunc renders the text it is handed as String would.
	for _, s := range strs {
		var got bytes.Buffer
		w := NewWriter(&got, " ")
		w.StringFunc(func(b []byte) []byte { return append(b, s...) })
		if err := w.Finish(); err != nil {
			t.Fatal(err)
		}
		want, _ := json.Marshal(s)
		if want = append(want, '\n'); !bytes.Equal(got.Bytes(), want) {
			t.Errorf("StringFunc(%q) = %s, want %s", s, got.Bytes(), want)
		}
	}
	for _, f := range []float64{0, math.Copysign(0, -1), 1e-7, -1e-7, 1e-6, 1e21, 9.99e20, 5e-324,
		math.MaxFloat64, 123.456, -2.5e-9, 1e-100} {
		want, _ := json.Marshal(f)
		if got := AppendFloat(nil, f); !bytes.Equal(got, want) {
			t.Errorf("AppendFloat(%v) = %s, want %s", f, got, want)
		}
	}
}

// TestWriterLayout: nested, empty and null containers, scalars at every
// depth and the trailing newline match an indenting Encoder.
func TestWriterLayout(t *testing.T) {
	doc := map[string]any{
		"a": []any{},
		"b": map[string]any{},
		"c": []any{1, "x", []any{2.5, map[string]any{"d": nil}}, map[string]any{}},
		"e": nil,
	}
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	enc.SetIndent("", "\t")
	if err := enc.Encode(doc); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	w := NewWriter(&got, "\t")
	w.BeginObject()
	w.Key("a")
	w.BeginArray()
	w.EndArray()
	w.Key("b")
	w.BeginObject()
	w.EndObject()
	w.Key("c")
	w.BeginArray()
	w.Int(1)
	w.String("x")
	w.BeginArray()
	w.Float(2.5)
	w.BeginObject()
	w.Key("d")
	w.Null()
	w.EndObject()
	w.EndArray()
	w.BeginObject()
	w.EndObject()
	w.EndArray()
	w.Key("e")
	Array[int](w, nil, nil)
	w.EndObject()
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("layout:\n%s\nwant:\n%s", got.String(), want.String())
	}
	// A large document spills through the bufio.Writer intact.
	got.Reset()
	w = NewWriter(&got, " ")
	w.BeginArray()
	for i := 0; i < 5000; i++ {
		w.String(strings.Repeat("x", i%7))
	}
	w.EndArray()
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	var back []string
	if err := json.Unmarshal(got.Bytes(), &back); err != nil || len(back) != 5000 {
		t.Errorf("large document: %d elements, %v", len(back), err)
	}
}
