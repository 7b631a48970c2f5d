// Package rat implements exact rational arithmetic for the scheduling
// algorithms in this repository.
//
// Every quantity manipulated by the bandwidth-centric procedures (rates,
// bandwidths, proposals, acknowledgments, periods) is a non-negative
// rational number by construction, and the correctness proofs in the paper
// rely on exact arithmetic: the steady-state conservation law must hold with
// equality, and the schedule periods are least common multiples of
// denominators. Floating point is therefore not an option.
//
// The representation uses an int64 numerator/denominator fast path and
// promotes transparently to math/big when any intermediate would overflow.
// Values are immutable: every operation returns a new R.
package rat

import (
	"fmt"
	"math"
	"math/big"
	"math/bits"
)

// R is an immutable exact rational number.
//
// The zero value of R is the rational 0. When big == nil the value is
// n/d with d > 0 and gcd(|n|, d) == 1. When big != nil the int64 fields are
// ignored and the value is held as a normalized big.Rat (big.Rat keeps
// itself in lowest terms with a positive denominator).
type R struct {
	n, d int64
	big  *big.Rat
}

// Zero is the rational 0.
var Zero = R{n: 0, d: 1}

// One is the rational 1.
var One = R{n: 1, d: 1}

// Two is the rational 2.
var Two = R{n: 2, d: 1}

// FromInt returns the rational v/1.
func FromInt(v int64) R { return R{n: v, d: 1} }

// New returns the rational n/d in lowest terms. It panics if d == 0; use
// tree-level validation to reject zero communication or computation times
// before they reach arithmetic.
func New(n, d int64) R {
	if d == 0 {
		panic("rat: zero denominator")
	}
	if d < 0 {
		// Guard the single overflowing case (-MinInt64 does not exist).
		if n == minInt64 || d == minInt64 {
			br := new(big.Rat).SetFrac(big.NewInt(n), big.NewInt(d))
			return fromBigRat(br)
		}
		n, d = -n, -d
	}
	g := gcd64(abs64(n), d)
	if g > 1 {
		n /= g
		d /= g
	}
	return R{n: n, d: d}
}

// FromBigRat returns an R holding a copy of v.
func FromBigRat(v *big.Rat) R {
	return fromBigRat(new(big.Rat).Set(v))
}

// fromBigRat takes ownership of br and demotes to the int64 fast path when
// the normalized numerator and denominator both fit.
func fromBigRat(br *big.Rat) R {
	if br.Num().IsInt64() && br.Denom().IsInt64() {
		n, d := br.Num().Int64(), br.Denom().Int64()
		// big.Rat is already normalized with d > 0.
		return R{n: n, d: d}
	}
	return R{big: br}
}

// bigRat returns the value as a freshly allocated big.Rat.
func (a R) bigRat() *big.Rat {
	if a.big != nil {
		return new(big.Rat).Set(a.big)
	}
	d := a.d
	if d == 0 { // zero value of R
		d = 1
	}
	return new(big.Rat).SetFrac64(a.n, d)
}

// norm returns the value with the zero-value denominator fixed up, so that
// internal arithmetic can assume d >= 1 on the fast path.
func (a R) norm() R {
	if a.big == nil && a.d == 0 {
		return R{n: 0, d: 1}
	}
	return a
}

// IsBig reports whether the value is currently held in the big.Rat
// representation (exported for tests and benchmarks of the promotion path).
func (a R) IsBig() bool { return a.big != nil }

// Frac64 returns the value's int64 view: the numerator and the positive
// denominator in lowest terms. ok is false when the value is held as big
// (IsBig). Callers that store many values without R's pointer keep the
// pair and rebuild the value with FromFrac64.
func (a R) Frac64() (n, d int64, ok bool) {
	a = a.norm()
	if a.big != nil {
		return 0, 0, false
	}
	return a.n, a.d, true
}

// FromFrac64 rebuilds the value of a pair Frac64 returned. The pair is
// taken as it is, in lowest terms with d > 0; any other pair must go
// through New.
func FromFrac64(n, d int64) R { return R{n: n, d: d} }

// Add returns a + b.
func (a R) Add(b R) R {
	a, b = a.norm(), b.norm()
	if a.big == nil && b.big == nil {
		// a.n/a.d + b.n/b.d = (a.n*b.d + b.n*a.d) / (a.d*b.d)
		if x, ok := mulCheck(a.n, b.d); ok {
			if y, ok := mulCheck(b.n, a.d); ok {
				if s, ok := addCheck(x, y); ok {
					if den, ok := mulCheck(a.d, b.d); ok {
						return New(s, den)
					}
				}
			}
		}
	}
	return fromBigRat(new(big.Rat).Add(a.bigRat(), b.bigRat()))
}

// Sub returns a - b.
func (a R) Sub(b R) R {
	return a.Add(b.Neg())
}

// Neg returns -a.
func (a R) Neg() R {
	a = a.norm()
	if a.big == nil {
		if a.n == minInt64 {
			return fromBigRat(new(big.Rat).Neg(a.bigRat()))
		}
		return R{n: -a.n, d: a.d}
	}
	return fromBigRat(new(big.Rat).Neg(a.big))
}

// Mul returns a * b.
func (a R) Mul(b R) R {
	a, b = a.norm(), b.norm()
	if a.big == nil && b.big == nil {
		// Cross-reduce first so products stay small: (a.n/b.d)*(b.n/a.d).
		g1 := gcd64(abs64(a.n), b.d)
		g2 := gcd64(abs64(b.n), a.d)
		an, bd := a.n/g1, b.d/g1
		bn, ad := b.n/g2, a.d/g2
		if num, ok := mulCheck(an, bn); ok {
			if den, ok := mulCheck(ad, bd); ok {
				return New(num, den)
			}
		}
	}
	return fromBigRat(new(big.Rat).Mul(a.bigRat(), b.bigRat()))
}

// Div returns a / b. It panics if b is zero.
func (a R) Div(b R) R {
	if b.IsZero() {
		panic("rat: division by zero")
	}
	return a.Mul(b.Inv())
}

// Inv returns 1/a. It panics if a is zero.
func (a R) Inv() R {
	a = a.norm()
	if a.IsZero() {
		panic("rat: inverse of zero")
	}
	if a.big == nil {
		if a.n == minInt64 {
			return fromBigRat(new(big.Rat).Inv(a.bigRat()))
		}
		if a.n < 0 {
			return R{n: -a.d, d: -a.n}
		}
		return R{n: a.d, d: a.n}
	}
	return fromBigRat(new(big.Rat).Inv(a.big))
}

// Cmp returns -1, 0, or +1 according to the sign of a - b.
func (a R) Cmp(b R) int {
	a, b = a.norm(), b.norm()
	if a.big == nil && b.big == nil {
		// Equal denominators (the overwhelmingly common case in the DES
		// event heap, where many events share one instant or one period
		// grid) compare numerators directly.
		if a.d == b.d {
			switch {
			case a.n < b.n:
				return -1
			case a.n > b.n:
				return 1
			default:
				return 0
			}
		}
		// Compare a.n*b.d <=> b.n*a.d without overflow when possible.
		x, ok1 := mulCheck(a.n, b.d)
		y, ok2 := mulCheck(b.n, a.d)
		if ok1 && ok2 {
			switch {
			case x < y:
				return -1
			case x > y:
				return 1
			default:
				return 0
			}
		}
	}
	return a.bigRat().Cmp(b.bigRat())
}

// Less reports whether a < b.
func (a R) Less(b R) bool { return a.Cmp(b) < 0 }

// LessEq reports whether a <= b.
func (a R) LessEq(b R) bool { return a.Cmp(b) <= 0 }

// Equal reports whether a == b. Both representations are canonical —
// lowest terms with positive denominator on the int64 path, and the big
// path is only ever used for values that do not fit int64 (fromBigRat
// demotes eagerly) — so equality is a field comparison, never a
// cross-multiplication.
func (a R) Equal(b R) bool {
	a, b = a.norm(), b.norm()
	if a.big == nil && b.big == nil {
		return a.n == b.n && a.d == b.d
	}
	if a.big != nil && b.big != nil {
		return a.big.Cmp(b.big) == 0
	}
	return false
}

// Sign returns -1, 0, or +1 according to the sign of a.
func (a R) Sign() int {
	a = a.norm()
	if a.big != nil {
		return a.big.Sign()
	}
	switch {
	case a.n < 0:
		return -1
	case a.n > 0:
		return 1
	default:
		return 0
	}
}

// IsZero reports whether a == 0.
func (a R) IsZero() bool { return a.Sign() == 0 }

// IsNeg reports whether a < 0.
func (a R) IsNeg() bool { return a.Sign() < 0 }

// IsPos reports whether a > 0.
func (a R) IsPos() bool { return a.Sign() > 0 }

// Min returns the smaller of a and b.
func Min(a, b R) R {
	if a.Cmp(b) <= 0 {
		return a
	}
	return b
}

// Max returns the larger of a and b.
func Max(a, b R) R {
	if a.Cmp(b) >= 0 {
		return a
	}
	return b
}

// Num returns the numerator of a (in lowest terms) as a new big.Int.
func (a R) Num() *big.Int {
	a = a.norm()
	if a.big != nil {
		return new(big.Int).Set(a.big.Num())
	}
	return big.NewInt(a.n)
}

// Den returns the denominator of a (in lowest terms, always positive) as a
// new big.Int.
func (a R) Den() *big.Int {
	a = a.norm()
	if a.big != nil {
		return new(big.Int).Set(a.big.Denom())
	}
	return big.NewInt(a.d)
}

// Int64 returns the value as an int64 when the rational is an integer that
// fits; ok is false otherwise.
func (a R) Int64() (v int64, ok bool) {
	a = a.norm()
	if a.big != nil {
		if a.big.IsInt() && a.big.Num().IsInt64() {
			return a.big.Num().Int64(), true
		}
		return 0, false
	}
	if a.d == 1 {
		return a.n, true
	}
	return 0, false
}

// IsInt reports whether the value is an integer.
func (a R) IsInt() bool {
	a = a.norm()
	if a.big != nil {
		return a.big.IsInt()
	}
	return a.d == 1
}

// maxExactFloat is 2^53: every integer of at most this magnitude is an
// exact float64.
const maxExactFloat = 1 << 53

// Float64 returns the nearest float64 (for reporting only; never used in
// scheduling decisions). When numerator and denominator are both exact
// float64 values, IEEE division rounds their quotient correctly, which is
// the nearest value math/big returns; otherwise it goes through big.Rat.
func (a R) Float64() float64 {
	a = a.norm()
	if a.big == nil && -maxExactFloat <= a.n && a.n <= maxExactFloat && a.d <= maxExactFloat {
		return float64(a.n) / float64(a.d)
	}
	f, _ := a.bigRat().Float64()
	return f
}

// String formats the value as "n" for integers and "n/d" otherwise.
func (a R) String() string {
	a = a.norm()
	if a.big != nil {
		if a.big.IsInt() {
			return a.big.Num().String()
		}
		return a.big.RatString()
	}
	if a.d == 1 {
		return fmt.Sprintf("%d", a.n)
	}
	return fmt.Sprintf("%d/%d", a.n, a.d)
}

// Parse parses "n", "n/d", or a decimal like "0.5" into an R.
func Parse(s string) (R, error) {
	br, ok := new(big.Rat).SetString(s)
	if !ok {
		return R{}, fmt.Errorf("rat: cannot parse %q", s)
	}
	return fromBigRat(br), nil
}

// MustParse is Parse that panics on error; intended for constants in tests
// and examples.
func MustParse(s string) R {
	r, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return r
}

// MarshalText implements encoding.TextMarshaler using String's format.
func (a R) MarshalText() ([]byte, error) { return []byte(a.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler accepting Parse's
// formats.
func (a *R) UnmarshalText(b []byte) error {
	r, err := Parse(string(b))
	if err != nil {
		return err
	}
	*a = r
	return nil
}

const minInt64 = -1 << 63

func abs64(v int64) int64 {
	if v < 0 {
		if v == minInt64 {
			// Caller must handle; gcd64 with minInt64 is avoided by
			// promoting earlier, but return a safe positive value.
			return 1 << 62
		}
		return -v
	}
	return v
}

// gcd64 returns gcd(a, b) for a, b >= 0 with gcd(0, x) = x.
func gcd64(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	if a == 0 {
		return 1
	}
	return a
}

// addCheck returns a+b and whether it did not overflow.
func addCheck(a, b int64) (int64, bool) {
	s := a + b
	if (a > 0 && b > 0 && s < 0) || (a < 0 && b < 0 && s >= 0) {
		return 0, false
	}
	return s, true
}

// mulCheck returns a*b and whether it did not overflow.
func mulCheck(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	p := a * b
	if p/b != a || (a == minInt64 && b == -1) || (b == minInt64 && a == -1) {
		return 0, false
	}
	return p, true
}

// GCDInt returns gcd(|a|, |b|) as a new big.Int (gcd(0, 0) = 0).
func GCDInt(a, b *big.Int) *big.Int {
	x := new(big.Int).Abs(a)
	y := new(big.Int).Abs(b)
	return new(big.Int).GCD(nil, nil, x, y)
}

// lcm64 returns lcm(|a|, |b|) and whether it was computed without
// overflow; lcm with zero is zero. MinInt64 has no int64 magnitude, so it
// reports overflow and the caller promotes.
func lcm64(a, b int64) (int64, bool) {
	if a == minInt64 || b == minInt64 {
		return 0, false
	}
	a, b = abs64(a), abs64(b)
	if a == 0 || b == 0 {
		return 0, true
	}
	return mulCheck(a/gcd64(a, b), b)
}

// LCMInt returns lcm(|a|, |b|) as a new big.Int; lcm with zero is zero.
// Operands that fit int64 are combined in int64, promoting to math/big
// only when the result overflows.
func LCMInt(a, b *big.Int) *big.Int {
	if a.IsInt64() && b.IsInt64() {
		if l, ok := lcm64(a.Int64(), b.Int64()); ok {
			return big.NewInt(l)
		}
	}
	if a.Sign() == 0 || b.Sign() == 0 {
		return new(big.Int)
	}
	g := GCDInt(a, b)
	q := new(big.Int).Div(new(big.Int).Abs(a), g)
	return q.Mul(q, new(big.Int).Abs(b))
}

// LCM returns lcm(|a|, |b|) of two integers (lcm with zero is zero). It
// panics when either value is not an integer. Integers that fit int64
// are combined in int64, promoting to math/big only when the result
// overflows.
func LCM(a, b R) R {
	if !a.IsInt() || !b.IsInt() {
		panic(fmt.Sprintf("rat: LCM of non-integer %s, %s", a, b))
	}
	a, b = a.norm(), b.norm()
	if a.big == nil && b.big == nil {
		if l, ok := lcm64(a.n, b.n); ok {
			return R{n: l, d: 1}
		}
	}
	return FromBigInt(LCMInt(a.Num(), b.Num()))
}

// DenLCM returns the least common multiple of the denominators of vs, an
// integer. The LCM of an empty list is 1 (the schedule period of a node
// that sends nothing is one time unit). The running lcm stays in int64
// until it overflows (LCM).
func DenLCM(vs ...R) R {
	l := One
	for _, v := range vs {
		if v = v.norm(); v.big == nil {
			l = LCM(l, R{n: v.d, d: 1})
		} else {
			l = LCM(l, FromBigInt(v.big.Denom()))
		}
	}
	return l
}

// MulInt returns a * i where i is a big integer, as an R.
func (a R) MulInt(i *big.Int) R {
	br := new(big.Rat).SetInt(i)
	return a.Mul(fromBigRat(br))
}

// FromBigInt returns the rational i/1.
func FromBigInt(i *big.Int) R {
	return fromBigRat(new(big.Rat).SetInt(i))
}

// Abs returns |a|.
func (a R) Abs() R {
	if a.IsNeg() {
		return a.Neg()
	}
	return a
}

// Floor returns the largest integer <= a, as an R. int64 values divide
// in int64: Go's quotient truncates toward zero, so a negative non-integer
// steps down by one.
func (a R) Floor() R {
	a = a.norm()
	if a.big == nil {
		q := a.n / a.d
		if a.n%a.d != 0 && a.n < 0 {
			q--
		}
		return R{n: q, d: 1}
	}
	if a.IsInt() {
		return a
	}
	q := new(big.Int).Quo(a.Num(), a.Den())
	if a.IsNeg() {
		q.Sub(q, big.NewInt(1))
	}
	return FromBigInt(q)
}

// FloorDiv returns ⌊a/b⌋ as an int64; ok is false when the quotient does
// not fit. A non-negative a over a positive b, both on the int64 path,
// takes one 128-bit division: ⌊(a.n·b.d) / (a.d·b.n)⌋ with both products
// formed exactly by bits.Mul64. Every other case goes through Div and
// Floor (so a zero b panics, as Div does).
func FloorDiv(a, b R) (int64, bool) {
	a, b = a.norm(), b.norm()
	if a.big == nil && b.big == nil && a.n >= 0 && b.n > 0 {
		numHi, numLo := bits.Mul64(uint64(a.n), uint64(b.d))
		denHi, den := bits.Mul64(uint64(a.d), uint64(b.n))
		if denHi == 0 && numHi < den {
			if q, _ := bits.Div64(numHi, numLo, den); q <= math.MaxInt64 {
				return int64(q), true
			}
			return 0, false
		}
	}
	return a.Div(b).Floor().Int64()
}

// Ceil returns the smallest integer >= a, as an R.
func (a R) Ceil() R {
	return a.Neg().Floor().Neg()
}
