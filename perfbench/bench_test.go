package main

import (
	"math"
	"reflect"
	"testing"
	"time"
)

func TestScheduleIsSeeded(t *testing.T) {
	a := poisson(7, 200, 2*time.Second, 4, 16)
	b := poisson(7, 200, 2*time.Second, 4, 16)
	if len(a) == 0 || !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed gave different schedules (%d vs %d jobs)", len(a), len(b))
	}
	if c := poisson(8, 200, 2*time.Second, 4, 16); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	for i := 1; i < len(a); i++ {
		if a[i].due < a[i-1].due || a[i].due >= 2*time.Second {
			t.Fatalf("job %d due at %v out of order or past the phase", i, a[i].due)
		}
	}
	if n := len(a); n < 340 || n > 460 {
		t.Fatalf("%d arrivals in 2 s at 200 req/s", n)
	}
	w1 := writeSchedule(3, "churn", 16, 10, 5*time.Second)
	w2 := writeSchedule(3, "churn", 16, 10, 5*time.Second)
	if len(w1) == 0 || !reflect.DeepEqual(w1, w2) {
		t.Fatal("same seed gave different write schedules")
	}
	present := map[string]bool{}
	for _, op := range w1 {
		if op.delete != present[op.id] {
			t.Fatalf("write %+v does not toggle the task's presence", op)
		}
		present[op.id] = !op.delete
	}
}

func TestQuantileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i + 1)
		}
		return v
	}
	cases := []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{1000, 0.99, 990, true},
		{999, 0.99, 990, false},
		{100, 0.90, 90, true},
		{99, 0.90, 90, false},
		{20, 0.50, 10, true},
		{19, 0.50, 10, false},
		{0, 0.50, 0, false},
	}
	for _, c := range cases {
		got, ok := quantile(seq(c.n), c.q)
		if got != c.want || ok != c.ok {
			t.Errorf("quantile(n=%d, q=%v) = %v, %v; want %v, %v", c.n, c.q, got, ok, c.want, c.ok)
		}
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }
	spans := []*span{
		{id: 1, start: at(0), end: at(10)},
		// Overlapping children cover [1, 5]; the third is clipped to
		// [8, 10]; the grandchild belongs to span 2 only.
		{id: 2, parent: 1, start: at(1), end: at(3)},
		{id: 3, parent: 1, start: at(2), end: at(5)},
		{id: 4, parent: 1, start: at(8), end: at(12)},
		{id: 5, parent: 2, start: at(1), end: at(2)},
		// A child wholly outside its parent covers none of it.
		{id: 6, parent: 1, start: at(20), end: at(30)},
	}
	self := selfTimes(spans)
	want := map[uint64]time.Duration{1: 4 * time.Millisecond, 2: time.Millisecond, 3: 3 * time.Millisecond,
		4: 4 * time.Millisecond, 5: time.Millisecond, 6: 10 * time.Millisecond}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("self times %v, want %v", self, want)
	}
}

func TestOracleRejectsOneFlippedBit(t *testing.T) {
	input := [3]int{3, 8, 8}
	o := newOracle(smallModel, input, makeFrames(1, 2, input))
	o.addPath("p", []string{"base/s1", "base/s2"})
	if err := o.compute([]string{"p"}); err != nil {
		t.Fatal(err)
	}
	logits := append([]float64(nil), o.ref["p"][1]...)
	if !o.matches("p", 1, logits) {
		t.Fatal("reference logits do not match themselves")
	}
	if o.matches("p", 0, logits) {
		t.Fatal("logits of frame 1 matched frame 0")
	}
	for i := range logits {
		flipped := append([]float64(nil), logits...)
		flipped[i] = math.Float64frombits(math.Float64bits(flipped[i]) ^ 1)
		if o.matches("p", 1, flipped) {
			t.Fatalf("logit %d with its lowest bit flipped was accepted", i)
		}
	}
	if err := o.compute([]string{"unknown"}); err == nil {
		t.Fatal("a path the oracle was never told about was accepted")
	}
}
