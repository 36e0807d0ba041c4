package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "cell", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50}, // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 60, End: 70},
		{ID: 5, Parent: 1, Name: "d", Start: 90, End: 120}, // clipped to the parent
		{ID: 6, Parent: 3, Name: "e", Start: 25, End: 45},  // grandchild: b's, not cell's
		{ID: 7, Name: "other", Start: 0, End: 10},
	}
	got := selfTimes(spans)
	want := []int64{100 - (40 + 10 + 10), 20, 30 - 20, 10, 30, 20, 10}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	by := selfByName(spans)
	if by["cell"] != 40 || by["b"] != 10 {
		t.Errorf("selfByName = %v", by)
	}
}

func TestRecorderNilIsNoOp(t *testing.T) {
	var r *recorder
	id := r.begin("x", "j", 0)
	r.end(id)
	r.add("y", "j", id, time.Now(), time.Now())
	if id != 0 || r.snapshot() != nil {
		t.Fatal("nil recorder recorded a span")
	}
}

func TestRecorderParentsAndOrder(t *testing.T) {
	r := newRecorder()
	root := r.begin("cell", "j1", 0)
	kid := r.begin("engine", "j1", root)
	r.end(kid)
	r.end(root)
	s := r.snapshot()
	if len(s) != 2 || s[1].Parent != s[0].ID || s[1].Job != "j1" {
		t.Fatalf("spans = %+v", s)
	}
	if s[0].Start > s[1].Start || s[1].End > s[0].End {
		t.Errorf("child %+v not inside parent %+v", s[1], s[0])
	}
}
