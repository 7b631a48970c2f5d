package rat

import (
	"math/big"
	"testing"
)

// checkFloorFloat64 compares Floor, Ceil and Float64 of v with the
// math/big results.
func checkFloorFloat64(t *testing.T, v R) {
	t.Helper()
	num, den := v.Num(), v.Den()
	floor := new(big.Int).Div(num, den) // Euclidean: floor for den > 0
	if got := v.Floor(); !got.Equal(FromBigInt(floor)) {
		t.Errorf("Floor(%s) = %s, want %s", v, got, floor)
	}
	ceil := new(big.Int).Neg(new(big.Int).Div(new(big.Int).Neg(num), den))
	if got := v.Ceil(); !got.Equal(FromBigInt(ceil)) {
		t.Errorf("Ceil(%s) = %s, want %s", v, got, ceil)
	}
	want, _ := new(big.Rat).SetFrac(num, den).Float64()
	if got := v.Float64(); got != want {
		t.Errorf("Float64(%s) = %v, want %v", v, got, want)
	}
}

// TestFloorFloat64Edges pins the int64 fast paths of Floor and Float64
// to the math/big results at their edges: negatives, the zero value, a
// MinInt64 numerator, ±2^53 (the last exact float64 magnitude, fast
// path) and ±(2^53+1) (big path), and values held as big.Rat.
func TestFloorFloat64Edges(t *testing.T) {
	const p53 = int64(1) << 53
	vs := []R{
		{}, Zero, One, FromInt(-1),
		New(7, 2), New(-7, 2), New(-6, 3), New(-1, 3), New(1, 3), New(-5, 1),
		FromInt(minInt64), New(minInt64, 3), New(minInt64, p53), New(minInt64+1, 7),
		FromInt(1<<63 - 1), New(1<<63-1, 2), New(1<<63-1, 1<<62+1),
		FromInt(p53), FromInt(-p53), New(p53, 3), New(-p53, 3), New(1, p53), New(-1, p53),
		FromInt(p53 + 1), FromInt(-(p53 + 1)), New(p53+1, 3), New(-(p53 + 1), 3),
		New(1, p53+1), New(-3, p53+1), New(p53+1, p53+3),
		MustParse("123456789012345678901234567890/7"),
		MustParse("-123456789012345678901234567890/7"),
		MustParse("1/123456789012345678901234567890"),
		MustParse("-98765432109876543210"),
	}
	for _, v := range vs {
		checkFloorFloat64(t, v)
	}
	for _, s := range []string{"123456789012345678901234567890/7", "-98765432109876543210"} {
		if !MustParse(s).IsBig() {
			t.Fatalf("%s is not held as big.Rat", s)
		}
	}
}

// TestFloorDivMatchesDivFloor pins FloorDiv's 128-bit path to Div and
// Floor: every pair of edge values, including quotients past 2^63,
// negative dividends and values held as big.Rat, gives the same integer
// and the same ok.
func TestFloorDivMatchesDivFloor(t *testing.T) {
	const p62 = int64(1) << 62
	vs := []R{
		Zero, One, New(7, 2), New(-7, 2), New(1, 3), New(-1, 3), FromInt(5),
		FromInt(p62), New(p62, 3), New(1<<63-1, 2), New(1, 1<<63-1), New(p62-1, p62+1),
		FromInt(minInt64), New(minInt64+1, 7),
		MustParse("123456789012345678901234567890/7"), MustParse("1/123456789012345678901234567890"),
	}
	for _, a := range vs {
		for _, b := range vs {
			if b.IsZero() {
				continue
			}
			want, wantOK := a.Div(b).Floor().Int64()
			got, ok := FloorDiv(a, b)
			if got != want || ok != wantOK {
				t.Errorf("FloorDiv(%s, %s) = %d, %v; Div+Floor gives %d, %v", a, b, got, ok, want, wantOK)
			}
		}
	}
}

// TestLCMMatchesLCMInt: the R-level LCM equals LCMInt on the same
// integers, on the int64 path, where it overflows, and for big values.
func TestLCMMatchesLCMInt(t *testing.T) {
	vs := []R{Zero, One, FromInt(6), FromInt(-4), FromInt(1 << 40), FromInt(1<<62 + 1), FromInt(minInt64),
		MustParse("123456789012345678901234567890")}
	for _, a := range vs {
		for _, b := range vs {
			if got, want := LCM(a, b), FromBigInt(LCMInt(a.Num(), b.Num())); !got.Equal(want) {
				t.Errorf("LCM(%s, %s) = %s, LCMInt gives %s", a, b, got, want)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("LCM of a non-integer did not panic")
		}
	}()
	LCM(New(1, 2), One)
}
