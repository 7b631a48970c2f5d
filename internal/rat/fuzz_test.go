package rat

import (
	"math/big"
	"testing"
)

// FuzzParse checks Parse against math/big, the reader its int64 path
// stands in for: both accept or refuse each input, with the same value.
// Every accepted value round-trips through String and Append.
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		"3/4", "-10/9", "0.125", "", "1/0", "9223372036854775807/2",
		"-9223372036854775808", "1e10", "010/3", "1_0", "0x10", "1e2", "+3",
		".5", "5.", "-0", "0", "-0.5", "00", "3/00", "3/07", "0.000000000000000001",
		"123456789012345678", "1234567890123456789", "-123456789/987654321",
		"12345678901/12345678", "123456789.123456789", "1.", "-", "/2", "1/-2",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		v, err := Parse(s)
		br, ok := new(big.Rat).SetString(s)
		if (err == nil) != ok {
			t.Fatalf("Parse(%q) err = %v, math/big ok = %v", s, err, ok)
		}
		if err != nil {
			return
		}
		if want := fromBigRat(br); !v.Equal(want) || v.IsBig() != want.IsBig() {
			t.Fatalf("Parse(%q) = %s, math/big reads %s", s, v, want)
		}
		if got := string(v.Append([]byte("x"))); got != "x"+v.String() {
			t.Fatalf("Append of %q gives %q, String %q", s, got, v.String())
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
