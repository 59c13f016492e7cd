package simclock

import "testing"

func TestWallTimer(t *testing.T) {
	var zero WallTimer
	if zero.ElapsedNs() != 0 {
		t.Error("zero-value timer reported elapsed time")
	}
	w := StartWall()
	a := w.ElapsedNs()
	b := w.ElapsedNs()
	if a < 0 || b < a {
		t.Errorf("wall clock not monotone: %d then %d", a, b)
	}
}
