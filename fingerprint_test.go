package bwc_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"bwc"
	"bwc/internal/treegen"
)

// textSHA is the fingerprint's definition, computed without the memo:
// the hex SHA-256 of the platform's text serialization.
func textSHA(t *bwc.Tree) string {
	sum := sha256.Sum256([]byte(bwc.FormatPlatform(t)))
	return hex.EncodeToString(sum[:])
}

// TestFingerprintMemoNeverStale: on every treegen family, forward and
// with a uniform result return, PlatformFingerprint is the hex SHA-256
// of the text both on the tree and on each Clone / With* derivative
// built after the parent was fingerprinted. A memo copied into a
// derivative would route a changed platform onto a stale tenant.
func TestFingerprintMemoNeverStale(t *testing.T) {
	for _, kind := range treegen.Kinds {
		fwd := bwc.GeneratePlatform(kind, 24, 3)
		ret, err := bwc.PlatformWithUniformResultReturn(fwd, bwc.Rat(1, 2))
		if err != nil {
			t.Fatal(err)
		}
		for _, base := range []*bwc.Tree{fwd, ret} {
			name := kind.String()
			if base.HasResultReturn() {
				name += "/uniform_return"
			}
			parentFP := bwc.PlatformFingerprint(base)
			if want := textSHA(base); parentFP != want {
				t.Fatalf("%s: fingerprint %s, want %s", name, parentFP, want)
			}
			leaf := bwc.NodeID(base.Len() - 1)
			ds := make([]bwc.Rational, base.Len())
			ds[leaf] = bwc.Rat(1, 7)
			derive := []struct {
				how  string
				make func() (*bwc.Tree, error)
			}{
				{"WithCommTime", func() (*bwc.Tree, error) {
					return base.WithCommTime(leaf, base.CommTime(leaf).Mul(bwc.RatInt(2)))
				}},
				{"WithProcTime", func() (*bwc.Tree, error) { return base.WithProcTime(leaf, bwc.Rat(97, 3)) }},
				{"WithReturnTime", func() (*bwc.Tree, error) { return base.WithReturnTime(leaf, bwc.Rat(1, 3)) }},
				{"WithUniformReturnTime", func() (*bwc.Tree, error) { return base.WithUniformReturnTime(bwc.Rat(1, 5)) }},
				{"WithReturnTimes", func() (*bwc.Tree, error) { return base.WithReturnTimes(ds) }},
			}
			for _, d := range derive {
				u, err := d.make()
				if err != nil {
					t.Fatalf("%s %s: %v", name, d.how, err)
				}
				got, want := bwc.PlatformFingerprint(u), textSHA(u)
				if got != want {
					t.Fatalf("%s %s: fingerprint %s, want %s", name, d.how, got, want)
				}
				if got == parentFP {
					t.Fatalf("%s %s: changed platform kept its parent's fingerprint", name, d.how)
				}
			}
			c := base.Clone()
			if got := bwc.PlatformFingerprint(c); got != parentFP || got != textSHA(c) {
				t.Fatalf("%s Clone: fingerprint %s, want %s", name, got, parentFP)
			}
		}
	}
}

// TestFingerprintGolden pins the fingerprint values Sessions and
// bwschedd tenants are keyed by: the Section-8 platform, forward and
// with a uniform return time of 1/2.
func TestFingerprintGolden(t *testing.T) {
	paper := bwc.PaperExampleTree()
	if got, want := bwc.PlatformFingerprint(paper), "c9dc863b92f593f5d705bf90c507240a151efbe2d83def04c03c065b5c466d08"; got != want {
		t.Errorf("paper fingerprint %s, want %s", got, want)
	}
	ret, err := bwc.PlatformWithUniformResultReturn(paper, bwc.Rat(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := bwc.PlatformFingerprint(ret), "f2532991bfdfed26c5b421f5ad9ff0188216a329ec943c0bd157b7264c16d8b6"; got != want {
		t.Errorf("paper+return fingerprint %s, want %s", got, want)
	}
}
