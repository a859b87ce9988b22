package exec

// White-box tests for the work-conserving batching executor. Each holds
// the executor inside a first batch through the batchHook, queues the
// requests under test, then releases it: what the next batches contain
// is then decided by the intake queue alone, not by goroutine timing.

import (
	"context"
	"errors"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"
)

// batchHold parks the executor inside its first batch until release and
// records the size of every batch the executor runs.
type batchHold struct {
	entered chan struct{} // closed once the first batch is parked
	gate    chan struct{}
	mu      sync.Mutex
	sizes   []int
}

// holdFirstBatch installs the hold on r; call it before Install.
func holdFirstBatch(r *Real) *batchHold {
	h := &batchHold{entered: make(chan struct{}), gate: make(chan struct{})}
	r.batchHook = func(n int) {
		h.mu.Lock()
		h.sizes = append(h.sizes, n)
		first := len(h.sizes) == 1
		h.mu.Unlock()
		if first {
			close(h.entered)
			<-h.gate
		}
	}
	return h
}

func (h *batchHold) release() { close(h.gate) }

// seen returns the batch sizes run so far, in execution order.
func (h *batchHold) seen() []int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]int(nil), h.sizes...)
}

type inferResult struct {
	out Output
	err error
}

// inferAsync sends one request and returns the channel its result
// arrives on.
func inferAsync(r *Real, req Request) chan inferResult {
	ch := make(chan inferResult, 1)
	go func() {
		out, err := r.Infer(context.Background(), req)
		ch <- inferResult{out, err}
	}()
	return ch
}

// queueDepth is a waitUntil condition: n requests wait in r's queues.
func queueDepth(r *Real, n int) func() bool {
	return func() bool { return r.Stats().QueueDepth == n }
}

// Batched execution must be observable and deterministic: requests
// queued behind a busy executor run as full batches, and every copy of
// one input produces identical logits whatever batch it lands in.
func TestBatchingDeterministic(t *testing.T) {
	r := dlReal(t, RealConfig{BatchSize: 4})
	hold := holdFirstBatch(r)
	if err := r.Install(dlPlan(1, "base/s1", "base/s2")); err != nil {
		t.Fatal(err)
	}
	in := dlInput(r)
	blocker := inferAsync(r, Request{TaskID: "t1", Input: in})
	<-hold.entered

	const n = 8
	chs := make([]chan inferResult, n)
	for i := range chs {
		chs[i] = inferAsync(r, Request{TaskID: "t1", Input: in})
	}
	waitUntil(t, "all requests queued", queueDepth(r, n))
	hold.release()

	first := <-blocker
	if first.err != nil {
		t.Fatalf("blocker: %v", first.err)
	}
	if first.out.BatchSize != 1 {
		t.Fatalf("blocker ran in a batch of %d, want 1", first.out.BatchSize)
	}
	for i, ch := range chs {
		got := <-ch
		if got.err != nil {
			t.Fatalf("infer %d: %v", i, got.err)
		}
		out := got.out
		if out.BatchSize != 4 {
			t.Fatalf("output %d ran in a batch of %d, want 4", i, out.BatchSize)
		}
		for j, v := range out.Logits {
			if math.IsNaN(v) {
				t.Fatalf("output %d logit %d is NaN", i, j)
			}
			if v != first.out.Logits[j] {
				t.Fatalf("same input diverged: out[%d]=%v blocker=%v", i, out.Logits, first.out.Logits)
			}
		}
		if out.Latency <= 0 {
			t.Fatalf("output %d has non-positive measured latency", i)
		}
		if out.Simulated {
			t.Fatalf("real backend marked output %d simulated", i)
		}
	}
	if got, want := hold.seen(), []int{1, 4, 4}; !reflect.DeepEqual(got, want) {
		t.Fatalf("batch sizes %v, want %v", got, want)
	}
}

// A batched run of a quantized path must produce, for every member, the
// logits of a solo run of the same input: per-image dynamic quantization
// is batch-invariant.
func TestQuantizedBatchingDeterministic(t *testing.T) {
	r := dlReal(t, RealConfig{BatchSize: 4, QuantGate: -1})
	hold := holdFirstBatch(r)
	if err := r.Install(dlPlan(1, "base/s1@i8")); err != nil {
		t.Fatal(err)
	}
	in := dlInput(r)
	solo := inferAsync(r, Request{TaskID: "t1", Input: in})
	<-hold.entered

	chs := make([]chan inferResult, 4)
	for i := range chs {
		chs[i] = inferAsync(r, Request{TaskID: "t1", Input: in})
	}
	waitUntil(t, "batch queued", queueDepth(r, len(chs)))
	hold.release()

	ref := <-solo
	if ref.err != nil {
		t.Fatal(ref.err)
	}
	for i, ch := range chs {
		got := <-ch
		if got.err != nil {
			t.Fatal(got.err)
		}
		if got.out.BatchSize != 4 {
			t.Fatalf("output %d ran in a batch of %d, want 4", i, got.out.BatchSize)
		}
		for j := range ref.out.Logits {
			if got.out.Logits[j] != ref.out.Logits[j] {
				t.Fatalf("batched logit %d differs from solo run", j)
			}
		}
	}
	if got, want := hold.seen(), []int{1, 4}; !reflect.DeepEqual(got, want) {
		t.Fatalf("batch sizes %v, want %v", got, want)
	}
}

// TestWorkConservingBatchPolicy pins the dispatch policy: once the
// executor frees up it runs what is queued at once, in full batches of
// BatchSize and then the remainder; under EDF the first batch holds the
// BatchSize earliest deadlines, and a waiter that went late in the queue
// is shed without taking a slot.
func TestWorkConservingBatchPolicy(t *testing.T) {
	const size = 4
	r := dlReal(t, RealConfig{BatchSize: size, QueueDepth: -1})
	hold := holdFirstBatch(r)
	if err := r.Install(dlPlan(1)); err != nil {
		t.Fatal(err)
	}
	in := dlInput(r)
	blocker := inferAsync(r, Request{TaskID: "t1", Input: in})
	<-hold.entered

	// The late waiter stands for one whose deadline passed while it
	// queued: enqueued directly, past Infer's intake check. It has the
	// earliest deadline of all, so EDF pops it first.
	late := &inferReq{input: in, deadline: time.Now().Add(-time.Second).UnixNano(), resp: make(chan inferResp, 1)}
	if err := r.enqueue((*r.routes.Load())["t1"], late); err != nil {
		t.Fatal(err)
	}

	// size+3 servable waiters arrive out of deadline order; rank k has
	// the k-th earliest deadline.
	ranks := []int{5, 2, 7, 1, 6, 3, 4}
	base := time.Now().Add(time.Hour)
	chs := make(map[int]chan inferResult, len(ranks))
	for _, k := range ranks {
		chs[k] = inferAsync(r, Request{TaskID: "t1", Input: in, Deadline: base.Add(time.Duration(k) * time.Minute)})
	}
	waitUntil(t, "burst queued", queueDepth(r, 1+len(ranks)))
	hold.release()

	if got := <-blocker; got.err != nil {
		t.Fatalf("blocker: %v", got.err)
	}
	if got := <-late.resp; !errors.Is(got.err, ErrLate) {
		t.Fatalf("late waiter: err = %v, want ErrLate", got.err)
	}
	for k, ch := range chs {
		got := <-ch
		if got.err != nil {
			t.Fatalf("rank %d: %v", k, got.err)
		}
		want := 3
		if k <= size {
			want = size
		}
		if got.out.BatchSize != want {
			t.Fatalf("rank %d ran in a batch of %d, want %d", k, got.out.BatchSize, want)
		}
	}
	if got, want := hold.seen(), []int{1, size, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("batch sizes %v, want %v", got, want)
	}
	if st := r.Stats(); st.ShedLate != 1 || st.Requests != 1+int64(len(ranks)) {
		t.Fatalf("ShedLate=%d Requests=%d, want 1 and %d", st.ShedLate, st.Requests, 1+len(ranks))
	}
}
