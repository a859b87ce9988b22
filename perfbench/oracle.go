package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"offloadnn/internal/core"
	"offloadnn/internal/dnn"
	"offloadnn/internal/edge"
	"offloadnn/internal/exec"
)

// makeFrames draws the seeded frame pool every workload offloads.
func makeFrames(seed int64, n int, shape [3]int) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	frames := make([][]float64, n)
	for i := range frames {
		f := make([]float64, shape[0]*shape[1]*shape[2])
		for j := range f {
			f[j] = rng.Float64()*2 - 1
		}
		frames[i] = f
	}
	return frames
}

// oracle holds reference logits: each frame run through the whole path
// on a separate batch-1 exec.Real. Batching and splitting are both
// bit-exact in the serving stack, so every served 200 must match its
// reference bit for bit.
type oracle struct {
	model  dnn.ResNetConfig
	input  [3]int
	frames [][]float64
	// paths maps a path key (what a response names) to its block IDs.
	paths map[string][]string
	ref   map[string][][]float64 // path key → logits per frame
}

func newOracle(model dnn.ResNetConfig, input [3]int, frames [][]float64) *oracle {
	return &oracle{model: model, input: input, frames: frames,
		paths: make(map[string][]string), ref: make(map[string][][]float64)}
}

// addPath names a path the served stack may answer with.
func (o *oracle) addPath(key string, blocks []string) { o.paths[key] = blocks }

// compute fills in reference logits for the given path keys, a bounded
// number of paths per reference backend so memory stays flat.
func (o *oracle) compute(keys []string) error {
	var todo []string
	for _, k := range keys {
		if _, ok := o.ref[k]; !ok {
			if _, known := o.paths[k]; !known {
				return fmt.Errorf("oracle: response names unknown path %q", k)
			}
			todo = append(todo, k)
		}
	}
	sort.Strings(todo)
	const chunk = 32
	for len(todo) > 0 {
		n := min(chunk, len(todo))
		if err := o.computeChunk(todo[:n]); err != nil {
			return err
		}
		todo = todo[n:]
	}
	return nil
}

func (o *oracle) computeChunk(keys []string) error {
	be, err := exec.NewReal(exec.RealConfig{Model: o.model, Input: o.input, BatchSize: 1})
	if err != nil {
		return err
	}
	defer be.Close()
	sol := &core.Solution{}
	rates := make(map[string]float64)
	for i, k := range keys {
		id := fmt.Sprintf("ref-%d", i)
		p := &core.PathSpec{ID: k, Blocks: o.paths[k]}
		sol.Assignments = append(sol.Assignments, core.Assignment{TaskID: id, Path: p, Z: 1})
		rates[id] = 1
	}
	plan := &exec.Plan{Epoch: 1, Deployment: &edge.Deployment{Solution: sol, AdmittedRates: rates}}
	if err := be.Install(plan); err != nil {
		return fmt.Errorf("oracle: reference install: %w", err)
	}
	for i, k := range keys {
		out := make([][]float64, len(o.frames))
		for f, frame := range o.frames {
			res, err := be.Infer(context.Background(), exec.Request{TaskID: fmt.Sprintf("ref-%d", i), Input: frame})
			if err != nil {
				return fmt.Errorf("oracle: reference %s frame %d: %w", k, f, err)
			}
			out[f] = res.Logits
		}
		o.ref[k] = out
	}
	return nil
}

// matches reports whether logits equal the reference bit for bit.
func (o *oracle) matches(key string, frame int, logits []float64) bool {
	want := o.ref[key]
	if frame >= len(want) || len(logits) == 0 || len(logits) != len(want[frame]) {
		return false
	}
	for i, v := range want[frame] {
		if math.Float64bits(v) != math.Float64bits(logits[i]) {
			return false
		}
	}
	return true
}
