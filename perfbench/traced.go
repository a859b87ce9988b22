package main

import (
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sort"
	"time"

	"offloadnn/internal/dnn"
	"offloadnn/internal/exec"
	"offloadnn/internal/tensor"
)

// forwardPath is what the dnn layer timing rebuilds: the workload's
// model template and path, the largest batch its backend serves, and
// which stage range [from, to) of the path each node runs (nil: one
// standalone node runs the whole path).
type forwardPath struct {
	model  dnn.ResNetConfig
	input  [3]int
	blocks []string
	batch  int
	split  map[string][2]int
}

// runTraced is the per-layer run. It plays the fixed-rate phase on an
// untraced stack (the reference for tracing overhead and Go runtime
// costs), times dnn.Model.ForwardBatch directly on the workload's path,
// and plays the phase again on a stack whose layers are wrapped from
// outside.
func runTraced(wl *workload, cfg config) (*result, error) {
	frames := makeFrames(cfg.seed, framePool, wl.shape)
	phase := cfg.seconds / 2
	jobsFor := func(st *stack) []job { return poisson(cfg.seed, wl.rate, phase, len(st.targets), framePool) }
	wrong := 0
	m := map[string]metric{}

	// Untraced reference phase.
	st, _, err := buildTimed(wl, frames, nil, 1)
	if err != nil {
		return nil, err
	}
	fp := st.forward
	g := newGenerator(st.url, cfg.conns, st.targets, frames, nil)
	var before, after runtime.MemStats
	untraced, _, err := servePhase(wl, cfg, st, g, jobsFor(st), &wrong, func() { runtime.ReadMemStats(&before) },
		func() { runtime.ReadMemStats(&after) })
	g.close()
	st.close()
	if err != nil {
		return nil, err
	}
	ops := float64(untraced.sent)
	m["go.alloc_kb_per_op"] = metric{float64(after.TotalAlloc-before.TotalAlloc) / 1024 / ops, "KB"}
	m["go.gc_pause_ms"] = metric{float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6, "ms"}

	// Forward passes are timed on a collected heap with no stack serving
	// beside them.
	runtime.GC()
	fwd, err := forwardTimes(fp)
	if err != nil {
		return nil, err
	}

	// Traced phase. The stage hop between members uses the default
	// transport, so it is wrapped for the traced stack's lifetime.
	tr := &tracer{}
	orig := http.DefaultTransport
	http.DefaultTransport = transport{base: orig}
	defer func() { http.DefaultTransport = orig }()
	st, _, err = buildTimed(wl, frames, tr, 1)
	if err != nil {
		return nil, err
	}
	defer st.close()
	var watches []*epochWatch
	for _, srv := range st.servers {
		watches = append(watches, watchEpochs(serverEpoch(srv, srv.Node())))
	}
	plans := watchEpochs(st.epoch)
	g = newGenerator(st.url, cfg.conns, st.targets, frames, tr)
	defer g.close()
	shedBefore := shedStats(st.backends)
	var t0, t1 time.Time
	traced, outs, err := servePhase(wl, cfg, st, g, jobsFor(st), &wrong, func() { t0 = time.Now() }, func() { t1 = time.Now() })
	if err != nil {
		return nil, err
	}
	shed := shedStats(st.backends)
	shed.ShedLate -= shedBefore.ShedLate
	shed.ShedQueueFull -= shedBefore.ShedQueueFull
	shed.ShedCanceled -= shedBefore.ShedCanceled
	if wl.churnRate == 0 {
		writes := runProbe(st, plans, cfg.seed+3, probeBursts, probeSize)
		traced.sent += len(writes)
		for _, w := range writes {
			if !w.ok {
				traced.failed++
			}
		}
	}
	plans.close()
	var epochs []epochRec
	for _, w := range watches {
		epochs = append(epochs, w.close()...)
	}

	p50u, ok1 := quantile(sortedCopy(untraced.lats), 0.5)
	p50t, ok2 := quantile(sortedCopy(traced.lats), 0.5)
	if !ok1 || !ok2 {
		return nil, fmt.Errorf("too few samples for the traced p50")
	}
	m["trace.overhead_p50_ms"] = metric{p50t - p50u, "ms"}
	lag, ok := quantile(sortedCopy(append(untraced.lags, traced.lags...)), 0.99)
	if !ok {
		return nil, fmt.Errorf("too few samples for the generator lag p99")
	}
	m["loadgen.lag_p99_ms"] = metric{lag, "ms"}
	m["exec.shed_late"] = metric{float64(shed.ShedLate), "count"}
	m["exec.shed_queue_full"] = metric{float64(shed.ShedQueueFull), "count"}
	m["exec.shed_canceled"] = metric{float64(shed.ShedCanceled), "count"}

	if err := layerMetrics(m, tr.snapshot(), t0, t1, outs, epochs, fwd); err != nil {
		return nil, err
	}
	return &result{Correct: wrong == 0, Attempted: untraced.sent + traced.sent,
		Failed: untraced.failed + traced.failed, Metrics: m}, nil
}

// servePhase warms the stack up, then plays jobs (with the churn writes
// beside them, if the workload has any), calling begin and end around
// the measured schedule.
func servePhase(wl *workload, cfg config, st *stack, g *generator, jobs []job, wrong *int, begin, end func()) (phaseStats, []outcome, error) {
	warm := poisson(cfg.seed+7, wl.rate, warmup, len(st.targets), framePool)
	if _, err := playPhase(st, g, warm, wl.limit, wrong); err != nil {
		return phaseStats{}, nil, err
	}
	stop, done := make(chan struct{}), make(chan struct{})
	var writes []writeRec
	if wl.churnRate > 0 {
		ops := writeSchedule(cfg.seed+3, "churn", 16, wl.churnRate, jobs[len(jobs)-1].due)
		go func() {
			defer close(done)
			writes = runWrites(st, ops, stop)
		}()
	} else {
		close(done)
	}
	begin()
	outs := g.run(jobs)
	end()
	close(stop)
	<-done
	ps, err := classify(st, jobs, outs, wl.limit)
	*wrong += ps.wrong
	ps.sent += len(writes)
	for _, w := range writes {
		if !w.ok {
			ps.failed++
		}
	}
	return ps, outs, err
}

func shedStats(backends []exec.Backend) exec.Stats {
	var s exec.Stats
	for _, be := range backends {
		st := be.Stats()
		s.ShedLate += st.ShedLate
		s.ShedQueueFull += st.ShedQueueFull
		s.ShedCanceled += st.ShedCanceled
	}
	return s
}

// forwardTimes times ForwardBatch directly on models assembled with the
// same block builders the execution backend uses, for every batch size
// up to the backend's. It returns the median milliseconds per node and
// batch size; the "" entry is the whole path.
func forwardTimes(fp forwardPath) (map[string]map[int]float64, error) {
	n := len(fp.blocks)
	stem := dnn.BuildStemBlock(fp.model)
	var stages []*dnn.Block
	for i, id := range fp.blocks {
		b, err := dnn.BuildStageBlock(fp.model, id, min(i+1, 4), 0, 0)
		if err != nil {
			return nil, err
		}
		stages = append(stages, b)
	}
	cls := dnn.BuildClassifierBlock(fp.model, dnn.StageWidth(fp.model, n))
	whole, err := dnn.AssemblePathModel("perfbench", stem, stages, cls)
	if err != nil {
		return nil, err
	}
	type segment struct {
		node  string
		from  int
		model *dnn.Model
	}
	segs := []segment{{"", 0, whole}}
	if fp.split != nil {
		// Segment [from, to) of a split path is stages [from, to) of the
		// whole model, plus the stem when it heads the path and the
		// classifier when it ends it.
		segs = nil
		for node, r := range fp.split {
			lo, hi := r[0]+1, r[1]+1
			if r[0] == 0 {
				lo = 0
			}
			if r[1] == n {
				hi = n + 2
			}
			segs = append(segs, segment{node, r[0], &dnn.Model{Arch: "perfbench/" + node, Blocks: whole.Blocks[lo:hi]}})
		}
		sort.Slice(segs, func(i, j int) bool { return segs[i].from < segs[j].from })
	}

	out := map[string]map[int]float64{"": {}}
	for _, sg := range segs {
		out[sg.node] = map[int]float64{}
	}
	frames := makeFrames(1, fp.batch, fp.input)
	for b := 1; b <= fp.batch; b++ {
		var data []float64
		for _, f := range frames[:b] {
			data = append(data, f...)
		}
		shape := []int{b, fp.input[0], fp.input[1], fp.input[2]}
		for _, sg := range segs {
			var times []float64
			var next *tensor.Tensor
			for rep := 0; rep < 25; rep++ {
				x, err := tensor.FromSlice(data, shape...)
				if err != nil {
					return nil, err
				}
				t := time.Now()
				y, err := sg.model.ForwardBatch(x)
				if err != nil {
					return nil, err
				}
				if rep >= 5 { // the first passes fill the scratch pools
					times = append(times, ms(time.Since(t)))
				}
				if next != nil {
					tensor.Release(next)
				}
				next = y
			}
			out[sg.node][b] = median(times)
			if sg.node != "" {
				out[""][b] += out[sg.node][b]
			}
			// The next segment consumes this one's activation.
			data, shape = append([]float64(nil), next.Data()...), next.Shape()
			tensor.Release(next)
		}
	}
	return out, nil
}

// layerMetrics derives the per-layer metrics from the spans of the
// traced phase [t0, t1], its outcomes, the plans published over the
// traced stack's lifetime and the direct forward timings.
func layerMetrics(m map[string]metric, spans []*span, t0, t1 time.Time, outs []outcome,
	epochs []epochRec, fwd map[string]map[int]float64) error {
	self := selfTimes(spans)
	byID := make(map[uint64]*span, len(spans))
	child := make(map[uint64]*span) // outermost handler span per loadgen span
	layer := make(map[string][]*span)
	installs := make(map[string]time.Duration) // node/epoch → install span
	for _, s := range spans {
		byID[s.id] = s
		if s.layer == "exec.install" {
			installs[fmt.Sprintf("%s/%d", s.node, s.epoch)] = s.dur()
			layer[s.layer] = append(layer[s.layer], s)
			continue
		}
		if s.start.Before(t0) || s.start.After(t1) {
			continue
		}
		layer[s.layer] = append(layer[s.layer], s)
	}
	for _, s := range spans {
		if p, ok := byID[s.parent]; ok && p.layer == "loadgen" {
			child[p.id] = s
		}
	}
	meanOf := func(name string, f func(*span) float64) float64 {
		var v []float64
		for _, s := range layer[name] {
			v = append(v, f(s))
		}
		return mean(v)
	}
	selfMS := func(s *span) float64 { return ms(self[s.id]) }
	durMS := func(s *span) float64 { return ms(s.dur()) }

	var transport []float64
	for _, s := range layer["loadgen"] {
		if c, ok := child[s.id]; ok {
			transport = append(transport, ms(s.dur()-c.dur()))
		}
	}
	m["loadgen.transport_ms"] = metric{mean(transport), "ms"}
	m["serve.offload_self_ms"] = metric{meanOf("serve.offload", selfMS), "ms"}
	m["serve.body_kb"] = metric{meanOf("serve.offload", func(s *span) float64 { return float64(s.bytes) / 1024 }), "KB"}
	rejects := 0
	for _, s := range layer["serve.offload"] {
		if s.status == http.StatusTooManyRequests {
			rejects++
		}
	}
	m["serve.rejects"] = metric{float64(rejects), "count"}
	m["serve.hop_ms"] = metric{meanOf("serve.stage", durMS), "ms"}
	m["serve.stage_self_ms"] = metric{meanOf("serve.stage", selfMS), "ms"}
	m["cluster.proxy_self_ms"] = metric{meanOf("cluster.proxy", selfMS), "ms"}

	var infer, wait, batch []float64
	for _, s := range layer["exec.infer"] {
		if s.status != http.StatusOK {
			continue
		}
		infer = append(infer, ms(s.dur()))
		wait = append(wait, ms(s.dur())-fwd[s.node][s.batch])
		batch = append(batch, float64(s.batch))
	}
	sorted := sortedCopy(infer)
	p50, ok50 := quantile(sorted, 0.5)
	p99, ok99 := quantile(sorted, 0.99)
	if !ok50 || !ok99 {
		return fmt.Errorf("too few Infer spans (%d) for p99", len(infer))
	}
	m["exec.infer_p50_ms"] = metric{p50, "ms"}
	m["exec.infer_p99_ms"] = metric{p99, "ms"}
	m["exec.wait_ms"] = metric{mean(wait), "ms"}
	bmean := mean(batch)
	m["exec.batch_mean"] = metric{bmean, "count"}
	m["exec.install_ms"] = metric{meanOf("exec.install", durMS), "ms"}
	m["exec.installs"] = metric{float64(len(layer["exec.install"])), "count"}

	m["dnn.forward_b1_ms"] = metric{fwd[""][1], "ms"}
	b := int(math.Round(bmean))
	m["dnn.forward_bmean_ms"] = metric{fwd[""][max(1, min(b, len(fwd[""])))], "ms"}
	var act []float64
	for _, o := range outs {
		if o.status != http.StatusOK || len(o.hops) == 0 {
			continue
		}
		bytes := 0
		for _, h := range o.hops {
			bytes += h.ActivationBytes
		}
		act = append(act, float64(bytes)/1024)
	}
	m["dnn.act_kb"] = metric{mean(act), "KB"}

	var solves []float64
	for _, e := range epochs {
		solves = append(solves, ms(e.solve-installs[fmt.Sprintf("%s/%d", e.node, e.n)]))
	}
	m["core.solve_p50_ms"] = metric{median(solves), "ms"}
	m["core.solve_max_ms"] = metric{maxOf(solves), "ms"}
	m["serve.epochs"] = metric{float64(len(epochs)), "count"}
	return nil
}

func maxOf(v []float64) float64 {
	best := 0.0
	for _, x := range v {
		best = max(best, x)
	}
	return best
}
