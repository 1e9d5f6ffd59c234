package memmeter

import (
	"testing"
	"testing/quick"
)

func TestMeterZeroValue(t *testing.T) {
	var m Meter
	if m.Current() != 0 || m.Peak() != 0 {
		t.Fatalf("zero meter: current=%d peak=%d, want 0,0", m.Current(), m.Peak())
	}
}

func TestMeterGrowShrink(t *testing.T) {
	var m Meter
	m.Grow(5)
	m.Grow(3)
	if got := m.Current(); got != 8 {
		t.Errorf("current = %d, want 8", got)
	}
	m.Shrink(6)
	if got := m.Current(); got != 2 {
		t.Errorf("current after shrink = %d, want 2", got)
	}
	if got := m.Peak(); got != 8 {
		t.Errorf("peak = %d, want 8", got)
	}
}

func TestMeterShrinkClampsAtZero(t *testing.T) {
	var m Meter
	m.Grow(2)
	m.Shrink(10)
	if got := m.Current(); got != 0 {
		t.Errorf("current = %d, want 0", got)
	}
	if got := m.Peak(); got != 2 {
		t.Errorf("peak = %d, want 2", got)
	}
}

func TestMeterSet(t *testing.T) {
	var m Meter
	m.Set(7)
	m.Set(3)
	if got := m.Current(); got != 3 {
		t.Errorf("current = %d, want 3", got)
	}
	if got := m.Peak(); got != 7 {
		t.Errorf("peak = %d, want 7", got)
	}
	m.Set(-4)
	if got := m.Current(); got != 0 {
		t.Errorf("current after negative set = %d, want 0", got)
	}
}

func TestBitsPerWord(t *testing.T) {
	tests := []struct {
		n    int
		want int
	}{
		{0, 1}, {1, 1}, {2, 1}, {3, 2}, {4, 2}, {5, 3},
		{8, 3}, {9, 4}, {16, 4}, {17, 5}, {1024, 10}, {1025, 11},
	}
	for _, tt := range tests {
		if got := BitsPerWord(tt.n); got != tt.want {
			t.Errorf("BitsPerWord(%d) = %d, want %d", tt.n, got, tt.want)
		}
	}
}

func TestPeakBits(t *testing.T) {
	var m Meter
	m.Grow(10)
	if got := m.PeakBits(1024); got != 100 {
		t.Errorf("PeakBits(1024) = %d, want 100", got)
	}
}

func TestMeterPeakNeverDecreases(t *testing.T) {
	f := func(ops []int16) bool {
		var m Meter
		prevPeak := 0
		for _, op := range ops {
			if op >= 0 {
				m.Grow(int(op))
			} else {
				m.Shrink(-int(op))
			}
			if m.Peak() < prevPeak {
				return false
			}
			if m.Current() > m.Peak() {
				return false
			}
			if m.Current() < 0 {
				return false
			}
			prevPeak = m.Peak()
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
