package checked

import (
	"math"
	"testing"
)

func TestAdd64(t *testing.T) {
	cases := []struct {
		a, b int64
		want int64
		ok   bool
	}{
		{1, 2, 3, true},
		{math.MaxInt64, 0, math.MaxInt64, true},
		{math.MaxInt64, 1, 0, false},
		{1 << 62, 1 << 62, 0, false}, // the PR-4 wrap shape
		{math.MinInt64, -1, 0, false},
		{math.MinInt64, math.MaxInt64, -1, true},
		{-5, 5, 0, true},
	}
	for _, c := range cases {
		got, ok := Add64(c.a, c.b)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("Add64(%d, %d) = %d, %v; want %d, %v", c.a, c.b, got, ok, c.want, c.ok)
		}
	}
}

func TestMul64(t *testing.T) {
	cases := []struct {
		a, b int64
		want int64
		ok   bool
	}{
		{0, math.MaxInt64, 0, true},
		{3, 7, 21, true},
		{math.MaxInt64, 2, 0, false},
		{1 << 32, 1 << 32, 0, false},
		{-1, math.MinInt64, 0, false},
		{math.MinInt64, -1, 0, false},
		{math.MinInt64, 1, math.MinInt64, true},
		{-(1 << 32), 1 << 32, 0, false},
		{-(1 << 32), 1 << 31, math.MinInt64, true},
	}
	for _, c := range cases {
		got, ok := Mul64(c.a, c.b)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("Mul64(%d, %d) = %d, %v; want %d, %v", c.a, c.b, got, ok, c.want, c.ok)
		}
	}
}

func TestSum64(t *testing.T) {
	if got, ok := Sum64([]int64{1, 2, 3}); !ok || got != 6 {
		t.Errorf("Sum64 = %d, %v; want 6, true", got, ok)
	}
	// Two 2⁶² counts: the exact PR-4 census Init wrap input.
	if _, ok := Sum64([]int64{1 << 62, 1 << 62}); ok {
		t.Error("Sum64 missed the two-2⁶²-counts wrap")
	}
	if got, ok := Sum64(nil); !ok || got != 0 {
		t.Errorf("Sum64(nil) = %d, %v; want 0, true", got, ok)
	}
}

func TestNarrow(t *testing.T) {
	if v, ok := Int(42); !ok || v != 42 {
		t.Errorf("Int(42) = %d, %v", v, ok)
	}
}
