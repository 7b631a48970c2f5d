package trace

import (
	"testing"

	"bwc/internal/rat"
)

// Degenerate-trace coverage for the buffer-occupancy statistics: the
// post-processing must be total — an empty run, a single sample, and
// zero-length windows are all legal inputs (they occur for platforms
// whose optimal schedule uses only the root).

func TestEmptyTraceStatistics(t *testing.T) {
	tr := &Trace{Tree: tinyTree(t)}
	if got := tr.MaxBufferHeld(); len(got) != 2 || got[0] != 0 || got[1] != 0 {
		t.Fatalf("MaxBufferHeld on empty trace = %v", got)
	}
	if got := tr.BufferAt(0, rat.FromInt(5)); got != 0 {
		t.Fatalf("BufferAt on empty trace = %d", got)
	}
	if _, ok := tr.LastCompletion(); ok {
		t.Fatal("LastCompletion on empty trace reported a completion")
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("empty trace invalid: %v", err)
	}
	if got := tr.PeriodCounts(rat.One, rat.Zero); got != nil {
		t.Fatalf("PeriodCounts with zero horizon = %v", got)
	}
}

func TestSingleSampleStatistics(t *testing.T) {
	tr := &Trace{Tree: tinyTree(t)}
	tr.AddBufferSample(1, rat.FromInt(3), 4)

	// Before the sample the buffer is empty; from the sample on it holds.
	if got := tr.BufferAt(1, rat.FromInt(2)); got != 0 {
		t.Fatalf("BufferAt before lone sample = %d", got)
	}
	for _, at := range []rat.R{rat.FromInt(3), rat.FromInt(100)} {
		if got := tr.BufferAt(1, at); got != 4 {
			t.Fatalf("BufferAt(%s) = %d, want 4", at, got)
		}
	}
	if got := tr.MaxBufferHeld(); got[1] != 4 || got[0] != 0 {
		t.Fatalf("MaxBufferHeld = %v", got)
	}
	if got := tr.BufferAt(0, rat.FromInt(3)); got != 0 {
		t.Fatalf("BufferAt of the unsampled node = %d", got)
	}
}

func TestZeroLengthIntervalStatistics(t *testing.T) {
	tr := &Trace{Tree: tinyTree(t)}
	at := rat.FromInt(2)
	// A zero-length interval is a valid record (an instantaneous handoff
	// after quantization) — it must validate, contribute no busy time, and
	// not break the overlap check even when another interval touches it.
	tr.AddInterval(Interval{Node: 0, Kind: Compute, Start: at, End: at})
	tr.AddInterval(Interval{Node: 0, Kind: Compute, Start: at, End: rat.FromInt(4)})
	if err := tr.Validate(); err != nil {
		t.Fatalf("zero-length interval rejected: %v", err)
	}
	if got := tr.BusyTime(0, Compute, rat.Zero, rat.FromInt(10)); !got.Equal(rat.Two) {
		t.Fatalf("BusyTime = %s, want 2", got)
	}
	// A zero-length measurement window holds no busy time.
	if got := tr.BusyTime(0, Compute, at, at); !got.IsZero() {
		t.Fatalf("BusyTime over empty window = %s", got)
	}
	// Reversed windows behave like empty ones.
	if got := tr.BusyTime(0, Compute, rat.FromInt(4), rat.Zero); !got.IsZero() {
		t.Fatalf("BusyTime over reversed window = %s", got)
	}
}

// TestBufferAtUnsortedSamples: BufferAt scans in insertion order and stops
// at the first later sample; samples for other nodes interleaved between
// must not end the scan early.
func TestBufferAtInterleavedNodes(t *testing.T) {
	tr := &Trace{Tree: tinyTree(t)}
	tr.AddBufferSample(0, rat.One, 1)
	tr.AddBufferSample(1, rat.Two, 7)
	tr.AddBufferSample(0, rat.FromInt(3), 2)
	if got := tr.BufferAt(0, rat.FromInt(3)); got != 2 {
		t.Fatalf("BufferAt(0,3) = %d, want 2", got)
	}
	if got := tr.BufferAt(1, rat.FromInt(3)); got != 7 {
		t.Fatalf("BufferAt(1,3) = %d, want 7", got)
	}
}
