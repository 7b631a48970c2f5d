package rat

import (
	"math/big"
	"testing"
)

// FuzzParse checks the rational parser never panics and that accepted
// values round-trip through String.
func FuzzParse(f *testing.F) {
	f.Add("3/4")
	f.Add("-10/9")
	f.Add("0.125")
	f.Add("")
	f.Add("1/0")
	f.Add("9223372036854775807/2")
	f.Add("-9223372036854775808")
	f.Add("1e10")
	f.Fuzz(func(t *testing.T, s string) {
		v, err := Parse(s)
		if err != nil {
			return
		}
		back, err := Parse(v.String())
		if err != nil {
			t.Fatalf("String %q of parsed %q does not re-parse: %v", v.String(), s, err)
		}
		if !back.Equal(v) {
			t.Fatalf("round trip changed value: %q -> %s -> %s", s, v, back)
		}
	})
}

// FuzzLCM checks LCMInt and DenLCM against the math/big fold on
// arbitrary int64 operands, including ones whose lcm overflows int64.
func FuzzLCM(f *testing.F) {
	f.Add(int64(4), int64(6))
	f.Add(int64(0), int64(5))
	f.Add(int64(-6), int64(4))
	f.Add(int64(1)<<62, int64(3))
	f.Add(int64(9223372036854775807), int64(2))
	f.Add(int64(-9223372036854775808), int64(3))
	f.Fuzz(func(t *testing.T, a, b int64) {
		ba, bb := big.NewInt(a), big.NewInt(b)
		if got, want := LCMInt(ba, bb), bigLCM(ba, bb); got.Cmp(want) != 0 {
			t.Fatalf("LCMInt(%d, %d) = %s, want %s", a, b, got, want)
		}
		if a == 0 || b == 0 {
			return
		}
		vs := []R{New(1, a), New(1, b), New(1, 6)}
		if got, want := DenLCM(vs...), bigDenLCM(vs...); !got.Equal(FromBigInt(want)) {
			t.Fatalf("DenLCM(1/%d, 1/%d, 1/6) = %s, want %s", a, b, got, want)
		}
	})
}

// FuzzFloorFloat64 checks Floor, Ceil and Float64 against math/big on
// arbitrary int64 fractions, whichever path the value takes.
func FuzzFloorFloat64(f *testing.F) {
	f.Add(int64(7), int64(2))
	f.Add(int64(-7), int64(2))
	f.Add(int64(0), int64(5))
	f.Add(int64(-9223372036854775808), int64(3))
	f.Add(int64(1)<<53+1, int64(3))
	f.Add(-(int64(1)<<53 + 1), int64(1)<<53)
	f.Add(int64(5), int64(-9223372036854775808))
	f.Fuzz(func(t *testing.T, n, d int64) {
		if d == 0 {
			return
		}
		checkFloorFloat64(t, New(n, d))
	})
}
