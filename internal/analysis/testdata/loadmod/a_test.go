package loadmod

import "testing"

// TestA is in-package test code, which the loader never reads.
func TestA(t *testing.T) {
	if A() != 1 {
		t.Fatal("A")
	}
}
