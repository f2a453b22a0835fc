package chord

import "testing"

func TestSpaceValidation(t *testing.T) {
	if _, err := NewSpace(0); err == nil {
		t.Error("NewSpace(0) succeeded, want error")
	}
	if _, err := NewSpace(65); err == nil {
		t.Error("NewSpace(65) succeeded, want error")
	}
	s, err := NewSpace(24)
	if err != nil {
		t.Fatal(err)
	}
	if s.Mask() != (1<<24)-1 {
		t.Errorf("Mask() = %#x, want %#x", s.Mask(), (1<<24)-1)
	}
}

func TestSpaceWrapAndAdd(t *testing.T) {
	s, _ := NewSpace(8)
	if got := s.Wrap(257); got != 1 {
		t.Errorf("Wrap(257) = %d, want 1", got)
	}
	if got := s.Add(250, 10); got != 4 {
		t.Errorf("Add(250,10) = %d, want 4", got)
	}
	full := Space{Bits: 64}
	if got := full.Wrap(^uint64(0)); got != ID(^uint64(0)) {
		t.Errorf("64-bit Wrap clipped the value: %d", got)
	}
}

func TestBetween(t *testing.T) {
	tests := []struct {
		from, to, id ID
		want         bool
	}{
		{10, 20, 15, true},
		{10, 20, 20, true},
		{10, 20, 10, false},
		{10, 20, 25, false},
		{20, 10, 25, true}, // wrap-around interval
		{20, 10, 5, true},
		{20, 10, 15, false},
		{7, 7, 42, true}, // whole circle
	}
	for _, tt := range tests {
		if got := Between(tt.from, tt.to, tt.id); got != tt.want {
			t.Errorf("Between(%d,%d,%d) = %v, want %v", tt.from, tt.to, tt.id, got, tt.want)
		}
	}
}

func TestBetweenOpen(t *testing.T) {
	if BetweenOpen(10, 20, 20) {
		t.Error("BetweenOpen should exclude the upper endpoint")
	}
	if !BetweenOpen(10, 20, 19) {
		t.Error("BetweenOpen(10,20,19) should be true")
	}
	if BetweenOpen(7, 7, 7) {
		t.Error("BetweenOpen(x,x,x) should be false")
	}
	if !BetweenOpen(7, 7, 8) {
		t.Error("BetweenOpen(x,x,y) should be true for y != x")
	}
}
