package rat

import (
	"encoding/json"
	"math"
	"math/big"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestNewNormalizes(t *testing.T) {
	cases := []struct {
		n, d int64
		want string
	}{
		{1, 2, "1/2"},
		{2, 4, "1/2"},
		{-2, 4, "-1/2"},
		{2, -4, "-1/2"},
		{-2, -4, "1/2"},
		{0, 5, "0"},
		{0, -5, "0"},
		{7, 1, "7"},
		{-7, 1, "-7"},
		{6, 3, "2"},
		{10, 9, "10/9"},
	}
	for _, c := range cases {
		got := New(c.n, c.d).String()
		if got != c.want {
			t.Errorf("New(%d,%d) = %s, want %s", c.n, c.d, got, c.want)
		}
	}
}

func TestNewPanicsOnZeroDenominator(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(1,0) did not panic")
		}
	}()
	New(1, 0)
}

func TestZeroValueIsZero(t *testing.T) {
	var z R
	if !z.IsZero() {
		t.Fatal("zero value of R is not zero")
	}
	if got := z.Add(One); !got.Equal(One) {
		t.Fatalf("0+1 = %s", got)
	}
	if got := One.Add(z); !got.Equal(One) {
		t.Fatalf("1+0 = %s", got)
	}
	if got := z.Mul(Two); !got.IsZero() {
		t.Fatalf("0*2 = %s", got)
	}
	if z.String() != "0" {
		t.Fatalf("zero value String = %q", z.String())
	}
	if z.Sign() != 0 {
		t.Fatalf("zero value Sign = %d", z.Sign())
	}
}

func TestBasicArithmetic(t *testing.T) {
	half := New(1, 2)
	third := New(1, 3)
	if got := half.Add(third); !got.Equal(New(5, 6)) {
		t.Errorf("1/2+1/3 = %s", got)
	}
	if got := half.Sub(third); !got.Equal(New(1, 6)) {
		t.Errorf("1/2-1/3 = %s", got)
	}
	if got := half.Mul(third); !got.Equal(New(1, 6)) {
		t.Errorf("1/2*1/3 = %s", got)
	}
	if got := half.Div(third); !got.Equal(New(3, 2)) {
		t.Errorf("(1/2)/(1/3) = %s", got)
	}
	if got := third.Inv(); !got.Equal(FromInt(3)) {
		t.Errorf("inv(1/3) = %s", got)
	}
	if got := New(-3, 4).Neg(); !got.Equal(New(3, 4)) {
		t.Errorf("-(-3/4) = %s", got)
	}
}

func TestDivByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Div by zero did not panic")
		}
	}()
	One.Div(Zero)
}

func TestInvZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Inv of zero did not panic")
		}
	}()
	Zero.Inv()
}

func TestCmpAndOrdering(t *testing.T) {
	vals := []R{New(-3, 2), FromInt(-1), Zero, New(1, 3), New(1, 2), One, New(10, 9), Two}
	for i := range vals {
		for j := range vals {
			got := vals[i].Cmp(vals[j])
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got != want {
				t.Errorf("Cmp(%s, %s) = %d, want %d", vals[i], vals[j], got, want)
			}
		}
	}
	if !New(1, 3).Less(New(1, 2)) {
		t.Error("1/3 < 1/2 failed")
	}
	if !New(1, 2).LessEq(New(1, 2)) {
		t.Error("1/2 <= 1/2 failed")
	}
	if got := Min(New(1, 3), New(1, 2)); !got.Equal(New(1, 3)) {
		t.Errorf("Min = %s", got)
	}
	if got := Max(New(1, 3), New(1, 2)); !got.Equal(New(1, 2)) {
		t.Errorf("Max = %s", got)
	}
}

func TestOverflowPromotionAdd(t *testing.T) {
	big1 := New(math.MaxInt64-1, 3)
	big2 := New(math.MaxInt64-2, 5)
	sum := big1.Add(big2)
	// Verify against math/big directly.
	want := new(big.Rat).Add(new(big.Rat).SetFrac64(math.MaxInt64-1, 3), new(big.Rat).SetFrac64(math.MaxInt64-2, 5))
	if sum.bigRat().Cmp(want) != 0 {
		t.Fatalf("promoted add wrong: %s", sum)
	}
}

func TestOverflowPromotionMul(t *testing.T) {
	a := New(math.MaxInt64-1, 7)
	b := New(math.MaxInt64-3, 11)
	got := a.Mul(b)
	want := new(big.Rat).Mul(new(big.Rat).SetFrac64(math.MaxInt64-1, 7), new(big.Rat).SetFrac64(math.MaxInt64-3, 11))
	if got.bigRat().Cmp(want) != 0 {
		t.Fatalf("promoted mul wrong: %s", got)
	}
	if !got.IsBig() {
		t.Fatal("expected big representation after overflowing mul")
	}
}

func TestDemotionAfterCancellation(t *testing.T) {
	// (MaxInt64-1)/3 * 3/(MaxInt64-1) == 1 and should demote to fast path.
	a := New(math.MaxInt64-1, 3)
	b := New(3, math.MaxInt64-1)
	got := a.Mul(b)
	if !got.Equal(One) {
		t.Fatalf("got %s, want 1", got)
	}
	if got.IsBig() {
		t.Fatal("expected demotion to int64 representation")
	}
}

func TestMinInt64Edge(t *testing.T) {
	m := FromInt(math.MinInt64)
	if got := m.Neg(); got.Cmp(New(math.MaxInt64, 1)) <= 0 {
		// -MinInt64 = 2^63 > MaxInt64, must be held in big form.
		t.Fatalf("Neg(MinInt64) = %s", got)
	}
	inv := m.Inv()
	want := new(big.Rat).SetFrac(big.NewInt(1), new(big.Int).SetUint64(1<<63))
	want.Neg(want)
	if inv.bigRat().Cmp(want) != 0 {
		t.Fatalf("Inv(MinInt64) = %s", inv)
	}
	if got := New(math.MinInt64, -1); got.bigRat().Cmp(new(big.Rat).SetFrac(new(big.Int).Neg(big.NewInt(math.MinInt64)), big.NewInt(1))) != 0 {
		t.Fatalf("New(MinInt64,-1) = %s", got)
	}
}

func TestIntConversions(t *testing.T) {
	if v, ok := FromInt(42).Int64(); !ok || v != 42 {
		t.Fatalf("Int64 of 42: %d %v", v, ok)
	}
	if _, ok := New(1, 2).Int64(); ok {
		t.Fatal("1/2 reported as integer")
	}
	if !FromInt(-5).IsInt() || New(3, 2).IsInt() {
		t.Fatal("IsInt wrong")
	}
	huge := FromBigInt(new(big.Int).Lsh(big.NewInt(1), 100))
	if _, ok := huge.Int64(); ok {
		t.Fatal("2^100 fit in int64?")
	}
	if !huge.IsInt() {
		t.Fatal("2^100 not integer?")
	}
}

func TestParseAndString(t *testing.T) {
	cases := map[string]string{
		"3":     "3",
		"3/4":   "3/4",
		"-3/4":  "-3/4",
		"6/8":   "3/4",
		"0.5":   "1/2",
		"1.25":  "5/4",
		"-0.2":  "-1/5",
		"10/9":  "10/9",
		"0":     "0",
		"-0":    "0",
		"07/14": "1/2",
	}
	for in, want := range cases {
		got, err := Parse(in)
		if err != nil {
			t.Errorf("Parse(%q): %v", in, err)
			continue
		}
		if got.String() != want {
			t.Errorf("Parse(%q) = %s, want %s", in, got, want)
		}
	}
	for _, bad := range []string{"", "x", "1/", "/2", "1/0", "one half"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) succeeded", bad)
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse(bad) did not panic")
		}
	}()
	MustParse("not-a-rational")
}

func TestTextMarshalRoundTrip(t *testing.T) {
	for _, v := range []R{Zero, One, New(-7, 3), New(10, 9), FromBigInt(new(big.Int).Lsh(big.NewInt(3), 80))} {
		b, err := v.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var got R
		if err := got.UnmarshalText(b); err != nil {
			t.Fatal(err)
		}
		if !got.Equal(v) {
			t.Errorf("round trip %s -> %s", v, got)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	type payload struct {
		A R `json:"a"`
		B R `json:"b"`
	}
	in := payload{A: New(10, 9), B: New(-1, 2)}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out payload
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if !out.A.Equal(in.A) || !out.B.Equal(in.B) {
		t.Fatalf("json round trip: %+v", out)
	}
}

func TestFloat64(t *testing.T) {
	if got := New(1, 2).Float64(); got != 0.5 {
		t.Fatalf("Float64(1/2) = %v", got)
	}
	if got := New(10, 9).Float64(); math.Abs(got-10.0/9.0) > 1e-15 {
		t.Fatalf("Float64(10/9) = %v", got)
	}
}

func TestNumDen(t *testing.T) {
	v := New(-6, 8)
	if v.Num().Int64() != -3 || v.Den().Int64() != 4 {
		t.Fatalf("Num/Den of -6/8: %s/%s", v.Num(), v.Den())
	}
	// Mutating the returned big.Ints must not affect the value.
	v.Num().SetInt64(99)
	v.Den().SetInt64(99)
	if v.String() != "-3/4" {
		t.Fatalf("aliasing bug: %s", v)
	}
}

func TestGCDLCMInt(t *testing.T) {
	g := GCDInt(big.NewInt(12), big.NewInt(-18))
	if g.Int64() != 6 {
		t.Fatalf("gcd(12,-18) = %s", g)
	}
	l := LCMInt(big.NewInt(4), big.NewInt(6))
	if l.Int64() != 12 {
		t.Fatalf("lcm(4,6) = %s", l)
	}
	if LCMInt(big.NewInt(0), big.NewInt(5)).Sign() != 0 {
		t.Fatal("lcm(0,5) != 0")
	}
}

func TestDenLCM(t *testing.T) {
	l := DenLCM(New(1, 4), New(5, 6), FromInt(7))
	if !l.Equal(FromInt(12)) {
		t.Fatalf("DenLCM(1/4,5/6,7) = %s", l)
	}
	if !DenLCM().Equal(One) {
		t.Fatal("DenLCM() != 1")
	}
}

func TestMulInt(t *testing.T) {
	got := New(10, 9).MulInt(big.NewInt(9))
	if !got.Equal(FromInt(10)) {
		t.Fatalf("10/9 * 9 = %s", got)
	}
}

// randR generates a random rational from a size-limited space, mixing in
// values near the int64 boundary so the promotion path is exercised.
func randR(r *rand.Rand) R {
	switch r.Intn(6) {
	case 0:
		return New(r.Int63n(1<<40)-(1<<39), r.Int63n(1<<20)+1)
	case 1:
		return FromInt(r.Int63() - r.Int63())
	case 2:
		return New(math.MaxInt64-r.Int63n(1000), r.Int63n(1000)+1)
	case 3:
		return Zero
	default:
		return New(r.Int63n(2000)-1000, r.Int63n(100)+1)
	}
}

func quickCfg() *quick.Config {
	return &quick.Config{
		MaxCount: 400,
		Values: func(args []reflect.Value, r *rand.Rand) {
			for i := range args {
				args[i] = reflect.ValueOf(randR(r))
			}
		},
	}
}

func TestPropCommutativity(t *testing.T) {
	f := func(a, b R) bool {
		return a.Add(b).Equal(b.Add(a)) && a.Mul(b).Equal(b.Mul(a))
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

func TestPropAssociativity(t *testing.T) {
	f := func(a, b, c R) bool {
		return a.Add(b).Add(c).Equal(a.Add(b.Add(c))) &&
			a.Mul(b).Mul(c).Equal(a.Mul(b.Mul(c)))
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

func TestPropDistributivity(t *testing.T) {
	f := func(a, b, c R) bool {
		return a.Mul(b.Add(c)).Equal(a.Mul(b).Add(a.Mul(c)))
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

func TestPropAddSubInverse(t *testing.T) {
	f := func(a, b R) bool {
		return a.Add(b).Sub(b).Equal(a)
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

func TestPropMulDivInverse(t *testing.T) {
	f := func(a, b R) bool {
		if b.IsZero() {
			return true
		}
		return a.Mul(b).Div(b).Equal(a)
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

func TestPropAgreesWithBigRat(t *testing.T) {
	f := func(a, b R) bool {
		want := new(big.Rat).Add(a.bigRat(), b.bigRat())
		if a.Add(b).bigRat().Cmp(want) != 0 {
			return false
		}
		want = new(big.Rat).Mul(a.bigRat(), b.bigRat())
		if a.Mul(b).bigRat().Cmp(want) != 0 {
			return false
		}
		want = new(big.Rat).Sub(a.bigRat(), b.bigRat())
		return a.Sub(b).bigRat().Cmp(want) == 0
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

func TestPropStringParseRoundTrip(t *testing.T) {
	f := func(a R) bool {
		got, err := Parse(a.String())
		return err == nil && got.Equal(a)
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

func TestPropCmpConsistentWithSub(t *testing.T) {
	f := func(a, b R) bool {
		return a.Cmp(b) == a.Sub(b).Sign()
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAddFastPath(b *testing.B) {
	x, y := New(10, 9), New(7, 13)
	for i := 0; i < b.N; i++ {
		_ = x.Add(y)
	}
}

func BenchmarkMulFastPath(b *testing.B) {
	x, y := New(10, 9), New(7, 13)
	for i := 0; i < b.N; i++ {
		_ = x.Mul(y)
	}
}

func BenchmarkAddBigPath(b *testing.B) {
	x := FromBigInt(new(big.Int).Lsh(big.NewInt(1), 100))
	y := New(7, 13)
	for i := 0; i < b.N; i++ {
		_ = x.Add(y)
	}
}

func TestAbsFloorCeil(t *testing.T) {
	cases := []struct {
		in, abs, floor, ceil string
	}{
		{"7/2", "7/2", "3", "4"},
		{"-7/2", "7/2", "-4", "-3"},
		{"3", "3", "3", "3"},
		{"-3", "3", "-3", "-3"},
		{"0", "0", "0", "0"},
		{"1/9", "1/9", "0", "1"},
		{"-1/9", "1/9", "-1", "0"},
	}
	for _, c := range cases {
		v := MustParse(c.in)
		if got := v.Abs().String(); got != c.abs {
			t.Errorf("Abs(%s) = %s, want %s", c.in, got, c.abs)
		}
		if got := v.Floor().String(); got != c.floor {
			t.Errorf("Floor(%s) = %s, want %s", c.in, got, c.floor)
		}
		if got := v.Ceil().String(); got != c.ceil {
			t.Errorf("Ceil(%s) = %s, want %s", c.in, got, c.ceil)
		}
	}
}

func TestPropFloorCeil(t *testing.T) {
	f := func(a R) bool {
		fl, ce := a.Floor(), a.Ceil()
		if !fl.IsInt() || !ce.IsInt() {
			return false
		}
		if a.Less(fl) || ce.Less(a) {
			return false
		}
		// ceil - floor is 0 for integers, 1 otherwise.
		diff := ce.Sub(fl)
		if a.IsInt() {
			return diff.IsZero()
		}
		return diff.Equal(One)
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

func TestBigPathBranches(t *testing.T) {
	huge := FromBigInt(new(big.Int).Lsh(big.NewInt(3), 90)) // beyond int64
	if !huge.IsBig() {
		t.Fatal("not big")
	}
	if !huge.IsPos() || huge.IsNeg() || huge.IsZero() {
		t.Fatal("sign of huge")
	}
	neg := huge.Neg()
	if !neg.IsNeg() || !neg.Abs().Equal(huge) {
		t.Fatal("Neg/Abs on big")
	}
	inv := huge.Inv()
	if !inv.Mul(huge).Equal(One) {
		t.Fatal("Inv on big")
	}
	// Min/Max branches.
	if !Min(huge, One).Equal(One) || !Max(One, huge).Equal(huge) {
		t.Fatal("Min/Max with big")
	}
	// Num/Den on big values.
	if huge.Den().Int64() != 1 {
		t.Fatal("Den of big int")
	}
	if huge.Num().Cmp(new(big.Int).Lsh(big.NewInt(3), 90)) != 0 {
		t.Fatal("Num of big int")
	}
	// Int64 on big integer that fits after arithmetic.
	if v, ok := huge.Sub(huge).Int64(); !ok || v != 0 {
		t.Fatal("Int64 after cancellation")
	}
	// Int64 on big non-integer.
	frac := huge.Add(New(1, 2))
	if _, ok := frac.Int64(); ok {
		t.Fatal("big fraction fit int64")
	}
	// String of big integer and big fraction.
	if s := huge.String(); s == "" || s[0] == '-' {
		t.Fatalf("String big: %q", s)
	}
	if s := frac.String(); s == "" {
		t.Fatal("String big fraction")
	}
}

func TestFromBigRatCopies(t *testing.T) {
	src := new(big.Rat).SetFrac64(10, 9)
	v := FromBigRat(src)
	src.SetFrac64(1, 2) // mutate the source after conversion
	if !v.Equal(New(10, 9)) {
		t.Fatalf("FromBigRat aliased its input: %s", v)
	}
	// A huge big.Rat stays big.
	hugeRat := new(big.Rat).SetFrac(new(big.Int).Lsh(big.NewInt(1), 80), big.NewInt(3))
	hv := FromBigRat(hugeRat)
	if !hv.IsBig() {
		t.Fatal("huge FromBigRat demoted")
	}
}

func TestUnmarshalTextError(t *testing.T) {
	var v R
	if err := v.UnmarshalText([]byte("nope")); err == nil {
		t.Fatal("bad text accepted")
	}
}

func TestGcdZeroBranch(t *testing.T) {
	// gcd64(0, 0) returns 1 by convention; exercised via New(0, d).
	if !New(0, 7).Equal(Zero) {
		t.Fatal("New(0,7)")
	}
	// abs64 of MinInt64 safety branch via New.
	v := New(math.MinInt64, 3)
	want := new(big.Rat).SetFrac(big.NewInt(math.MinInt64), big.NewInt(3))
	if v.bigRat().Cmp(want) != 0 {
		t.Fatalf("New(MinInt64,3) = %s", v)
	}
}
