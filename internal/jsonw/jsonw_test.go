package jsonw

import (
	"encoding/json"
	"math"
	"testing"
)

// FuzzString checks String against json.Marshal, the encoder it stands
// in for, on any string: every escape, U+2028 and U+2029, invalid UTF-8
// and runes cut short at the end of the input.
func FuzzString(f *testing.F) {
	for _, s := range []string{
		"", "P0", "r<&>", `a"b`, `c\d`, "e\xe2\x80\xa8f\xe2\x80\xa9g", "h\xffi", "j\x01k\x7f",
		"\b\f\n\r\t\x00\x1f", "é", "α χ →", "\xe2\x80", "\xed\xa0\x80", "\U0001F600", "é\xff\xe2\x80\xa9<",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := String([]byte("x"), s); string(got) != "x"+string(want) {
			t.Fatalf("String(%q) = %s, json.Marshal %s", s, got[1:], want)
		}
	})
}

// FuzzFloat checks Float against json.Marshal on every finite float64,
// across both format cut-offs and both exponent signs.
func FuzzFloat(f *testing.F) {
	for _, v := range []float64{
		0, math.Copysign(0, -1), 1, -1, 10.0 / 9, 1e-6, 9.999999e-7, 1e-7, 1e20, 1e21, -1e21,
		123456789e13, 5e-324, math.MaxFloat64, 1e-10, 1.5e-100, 1e100, 0.1, 2.5e-9,
	} {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v float64) {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			return
		}
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if got := Float([]byte("x"), v); string(got) != "x"+string(want) {
			t.Fatalf("Float(%v) = %s, json.Marshal %s", v, got[1:], want)
		}
	})
}
