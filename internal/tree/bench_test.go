package tree

import (
	"testing"

	"bwc/internal/rat"
)

func benchTree(b *testing.B, n int) *Tree {
	b.Helper()
	bu := NewBuilder()
	bu.Root("n0", rat.Two)
	for i := 1; i < n; i++ {
		parent := "n0"
		if i > 4 {
			parent = "n" + itoa((i-1)/4)
		}
		bu.Child(parent, "n"+itoa(i), rat.New(int64(i%7)+1, 2), rat.New(int64(i%5)+1, 1))
	}
	return bu.MustBuild()
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var buf [8]byte
	p := len(buf)
	for i > 0 {
		p--
		buf[p] = byte('0' + i%10)
		i /= 10
	}
	return string(buf[p:])
}

func BenchmarkWalk1000(b *testing.B) {
	t := benchTree(b, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		count := 0
		t.Walk(t.Root(), func(NodeID) bool { count++; return true })
		if count != 1000 {
			b.Fatal(count)
		}
	}
}

func BenchmarkClone1000(b *testing.B) {
	t := benchTree(b, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = t.Clone()
	}
}

func BenchmarkBuild1000(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = benchTree(b, 1000)
	}
}
