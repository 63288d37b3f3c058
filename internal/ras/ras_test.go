package ras

import "testing"

func TestPushPopLIFO(t *testing.T) {
	s := New(16)
	s.Push(0x100)
	s.Push(0x200)
	s.Push(0x300)
	wants := []uint64{0x300, 0x200, 0x100}
	for _, want := range wants {
		got, ok := s.Pop()
		if !ok || got != want {
			t.Fatalf("Pop = %#x/%v, want %#x/true", got, ok, want)
		}
	}
	if _, ok := s.Pop(); ok {
		t.Error("Pop on empty stack reported ok")
	}
}

func TestOverflowDropsOldest(t *testing.T) {
	s := New(2)
	s.Push(0x1)
	s.Push(0x2)
	s.Push(0x3) // overwrites 0x1
	if got, _ := s.Pop(); got != 0x3 {
		t.Errorf("first Pop = %#x, want 0x3", got)
	}
	if got, _ := s.Pop(); got != 0x2 {
		t.Errorf("second Pop = %#x, want 0x2", got)
	}
	if _, ok := s.Pop(); ok {
		t.Error("stack should be empty after overflow dropped the oldest entry")
	}
}

func TestPredictScoring(t *testing.T) {
	s := New(8)
	s.Push(0xAA)
	if !s.Predict(0xAA) {
		t.Error("correct return mispredicted")
	}
	s.Push(0xBB)
	if s.Predict(0xCC) {
		t.Error("wrong return counted correct")
	}
}

func TestPredictOnEmptyIsWrong(t *testing.T) {
	s := New(4)
	if s.Predict(0) {
		t.Error("empty-stack prediction counted correct")
	}
}

func TestDepthAndCapacity(t *testing.T) {
	s := New(4)
	if s.Capacity() != 4 {
		t.Errorf("Capacity = %d, want 4", s.Capacity())
	}
	for i := 0; i < 6; i++ {
		s.Push(uint64(i))
	}
	if s.Depth() != 4 {
		t.Errorf("Depth = %d, want 4 (clamped)", s.Depth())
	}
}

func TestReset(t *testing.T) {
	s := New(4)
	s.Push(1)
	s.Predict(1)
	s.Reset()
	if s.Depth() != 0 {
		t.Error("Reset did not clear state")
	}
}

func TestDeepCallChain(t *testing.T) {
	s := New(64)
	for i := 0; i < 50; i++ {
		s.Push(uint64(0x1000 + i))
	}
	for i := 49; i >= 0; i-- {
		if !s.Predict(uint64(0x1000 + i)) {
			t.Fatalf("mispredicted return %d in a within-capacity chain", i)
		}
	}
}

func TestConstructorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0) did not panic")
		}
	}()
	New(0)
}
