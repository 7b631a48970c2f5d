package rat

import (
	"math"
	"math/big"
	"testing"
)

// bigLCM is lcm(|a|, |b|) computed in math/big alone (lcm with zero is
// zero): the reference for LCMInt's int64 fast path.
func bigLCM(a, b *big.Int) *big.Int {
	if a.Sign() == 0 || b.Sign() == 0 {
		return new(big.Int)
	}
	x, y := new(big.Int).Abs(a), new(big.Int).Abs(b)
	g := new(big.Int).GCD(nil, nil, x, y)
	return x.Mul(x.Div(x, g), y)
}

// bigDenLCM is DenLCM through bigLCM only.
func bigDenLCM(vs ...R) *big.Int {
	l := big.NewInt(1)
	for _, v := range vs {
		l = bigLCM(l, v.Den())
	}
	return l
}

func pow2(e uint) *big.Int { return new(big.Int).Lsh(big.NewInt(1), e) }

// TestLCMIntEdges: near the int64 limits, with signs and zeros, and where
// the product overflows, LCMInt equals the math/big result, and an
// overflowing lcm comes back promoted rather than wrapped.
func TestLCMIntEdges(t *testing.T) {
	const p62 = int64(1) << 62
	cases := []struct {
		name string
		a, b *big.Int
	}{
		{"zero-zero", big.NewInt(0), big.NewInt(0)},
		{"zero-left", big.NewInt(0), big.NewInt(5)},
		{"zero-right", big.NewInt(-7), big.NewInt(0)},
		{"negatives", big.NewInt(-6), big.NewInt(-4)},
		{"mixed-signs", big.NewInt(-6), big.NewInt(4)},
		{"2^62-self", big.NewInt(p62), big.NewInt(p62)},
		{"2^62-and-2", big.NewInt(p62), big.NewInt(2)},
		{"2^62-and-3-overflows", big.NewInt(p62), big.NewInt(3)},
		{"2^62-and-2^62-1-overflows", big.NewInt(p62), big.NewInt(p62 - 1)},
		{"maxint-self", big.NewInt(math.MaxInt64), big.NewInt(math.MaxInt64)},
		{"maxint-and-7", big.NewInt(math.MaxInt64), big.NewInt(7)}, // 7 divides 2^63-1
		{"maxint-and-2-overflows", big.NewInt(math.MaxInt64), big.NewInt(2)},
		{"minint-and-1", big.NewInt(math.MinInt64), big.NewInt(1)},
		{"minint-and-3", big.NewInt(math.MinInt64), big.NewInt(-3)},
		{"big-and-small", pow2(70), big.NewInt(6)},
		{"big-and-big", pow2(70), new(big.Int).Sub(pow2(65), big.NewInt(1))},
	}
	for _, c := range cases {
		got, want := LCMInt(c.a, c.b), bigLCM(c.a, c.b)
		if got.Cmp(want) != 0 {
			t.Errorf("%s: LCMInt(%s, %s) = %s, want %s", c.name, c.a, c.b, got, want)
		}
		if got == c.a || got == c.b {
			t.Errorf("%s: LCMInt returned an operand, not a new big.Int", c.name)
		}
	}
}

// TestDenLCMEdges: DenLCM equals the math/big fold when the running lcm
// overflows int64, when a value held as big sits mid-list (with a
// denominator that does or does not fit int64), and for zero values.
func TestDenLCMEdges(t *testing.T) {
	const p62 = int64(1) << 62
	hugeNum := FromBigRat(new(big.Rat).SetFrac(pow2(80), big.NewInt(7))) // big-held, den 7
	hugeDen := FromBigRat(new(big.Rat).SetFrac(big.NewInt(1), pow2(70))) // big-held, den 2^70
	if !hugeNum.IsBig() || !hugeDen.IsBig() {
		t.Fatal("fixtures must be held as big")
	}
	cases := []struct {
		name string
		vs   []R
	}{
		{"empty", nil},
		{"zero-values", []R{{}, Zero, FromInt(3)}},
		{"small", []R{New(1, 4), New(5, 6), FromInt(7)}},
		{"negative", []R{New(-1, 4), New(5, -6)}},
		{"near-2^62", []R{New(1, p62), New(1, 2)}},
		{"overflow-2^62", []R{New(1, p62), New(1, 3)}},
		{"overflow-then-more", []R{New(1, p62-1), New(1, p62), New(1, 5), New(2, 3)}},
		{"maxint", []R{New(1, math.MaxInt64), New(1, 7), New(1, 2)}},
		{"primes-overflow", []R{New(1, 1000003), New(1, 1000033), New(1, 1000037), New(1, 1000039), New(1, 2)}},
		{"big-small-den-mid", []R{New(1, 2), hugeNum, New(1, 3)}},
		{"big-huge-den-mid", []R{New(1, 3), hugeDen, New(1, 5)}},
		{"minint-den", []R{New(1, 3), New(1, math.MinInt64), New(1, 5)}},
	}
	for _, c := range cases {
		got, want := DenLCM(c.vs...), bigDenLCM(c.vs...)
		if !got.Equal(FromBigInt(want)) {
			t.Errorf("%s: DenLCM = %s, want %s", c.name, got, want)
		}
	}
}
