package exec

import (
	"container/heap"
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"offloadnn/internal/dnn"
	"offloadnn/internal/edge"
	"offloadnn/internal/faultinject"
	"offloadnn/internal/tensor"
)

// SchedPolicy selects how a model's batching queue orders intake.
type SchedPolicy int

const (
	// SchedEDF (the default) pops waiters earliest-deadline-first and
	// sheds requests that are already past deadline before they enter a
	// batch. Requests without deadlines sort after every
	// deadline-carrying waiter, in arrival order — with no deadlines set
	// anywhere, EDF intake is bit-identical to FIFO.
	SchedEDF SchedPolicy = iota
	// SchedFIFO is the pre-deadline baseline: strict arrival order and
	// no lateness shedding. Kept selectable so the deadline-hit-rate win
	// of EDF is measurable against it on the same offered load.
	SchedFIFO
)

// String implements flag.Value-style printing.
func (p SchedPolicy) String() string {
	if p == SchedFIFO {
		return "fifo"
	}
	return "edf"
}

// ParseSched parses a scheduling policy name ("edf" or "fifo").
func ParseSched(s string) (SchedPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "edf":
		return SchedEDF, nil
	case "fifo":
		return SchedFIFO, nil
	}
	return SchedEDF, fmt.Errorf("exec: unknown sched policy %q (want edf or fifo)", s)
}

// RealConfig parameterizes the tensor-backed execution backend.
type RealConfig struct {
	// Model is the scaled architecture template every catalog block is
	// instantiated from (zero value: dnn.DefaultResNetConfig).
	Model dnn.ResNetConfig
	// Input is the per-request input shape (C, H, W); zero value:
	// (Model.InChannels, 8, 8).
	Input [3]int
	// BatchSize bounds how many admitted requests one ForwardBatch call
	// serves (default 8; 1 disables batching). The executor never waits
	// to fill a batch: it runs whatever is queued, up to BatchSize.
	BatchSize int
	// Repo optionally supplies trained weights: a block whose mangled ID
	// ('/' → '_') names a stored one-block model starts from those
	// weights instead of the seeded initialization. Binary weight
	// artifacts (.dnnw) are preferred and adopted zero-copy; the gob
	// store is the fallback.
	Repo *edge.Repository
	// QuantGate bounds the top-1 disagreement (fraction of the gate
	// batch) a reduced-precision path may show against its float64 twin
	// at install time before being demoted one precision tier (default
	// 0.02; negative disables the gate).
	QuantGate float64
	// CalibBatch is the batch size of the deterministic calibration/gate
	// input (default 8).
	CalibBatch int
	// Sched selects the batching queue's intake order: SchedEDF (the
	// zero value) for deadline-aware serving, SchedFIFO for the
	// arrival-order baseline.
	Sched SchedPolicy
	// QueueDepth bounds how many requests may wait in one model's intake
	// queue before backpressure sheds the latest-deadline waiter
	// (ErrQueueFull). Default 16×BatchSize; negative disables the bound.
	QueueDepth int
	// Faults optionally arms the exec.slow / exec.hang chaos points in
	// the batch executors. Nil (the usual case) costs a nil check.
	Faults *faultinject.Injector
	// Logf, when set, receives weight-loading diagnostics. Nil discards.
	Logf func(string, ...any)
}

// calibSeed fixes the calibration/gate batch across processes so gate
// verdicts are reproducible for a given catalog and weight set.
const calibSeed = 20240131

// blockInstance is one live shared block: the unit of the refcount that
// operationalizes constraint (1b) — however many deployed paths (and
// tasks, and epochs) reference a block ID, exactly one instance exists.
type blockInstance struct {
	block *dnn.Block
	stage int // 0 stem, 1..4 stages, 5 classifier
	refs  int // models currently aliasing the instance
	// weightBytes is the resident size of the artifact weight buffer the
	// block aliases zero-copy; 0 for seeded or gob-copied weights.
	weightBytes int64
}

// inferReq is one admitted request waiting in a model's batching queue.
type inferReq struct {
	ctx      context.Context
	input    []float64
	deadline int64 // unix nanos; 0 = no deadline (sorts last under EDF)
	seq      uint64
	resp     chan inferResp
}

type inferResp struct {
	logits []float64
	batch  int
	err    error
}

// lessReq is the intake order: under EDF, earlier deadlines first with
// zero (no deadline) after every deadline-carrying request; ties — and
// all of FIFO — break on the per-entry arrival sequence. With no
// deadlines set, EDF order therefore degenerates to exact arrival order.
func lessReq(a, b *inferReq, edf bool) bool {
	if edf && a.deadline != b.deadline {
		if a.deadline == 0 {
			return false
		}
		if b.deadline == 0 {
			return true
		}
		return a.deadline < b.deadline
	}
	return a.seq < b.seq
}

// reqQueue is a model entry's intake queue: a min-heap under lessReq.
type reqQueue struct {
	edf   bool
	items []*inferReq
}

func (q *reqQueue) Len() int           { return len(q.items) }
func (q *reqQueue) Less(i, j int) bool { return lessReq(q.items[i], q.items[j], q.edf) }
func (q *reqQueue) Swap(i, j int)      { q.items[i], q.items[j] = q.items[j], q.items[i] }
func (q *reqQueue) Push(x any)         { q.items = append(q.items, x.(*inferReq)) }
func (q *reqQueue) Pop() any {
	n := len(q.items)
	it := q.items[n-1]
	q.items[n-1] = nil
	q.items = q.items[:n-1]
	return it
}

// modelEntry is one assembled path model plus its batching executor. An
// entry is keyed by the path's block-ID signature, so tasks assigned the
// same path share one entry — and their requests batch together.
type modelEntry struct {
	sig   string
	model *dnn.Model
	keys  []string         // library keys the model aliases (stem, stages, classifier)
	prec  tensor.Precision // kernel precision the path runs at (post-gate)
	refs  int              // tasks routed to the entry by the installed plan
	done  chan struct{}    // closed when the entry is released

	// Segment geometry: whole paths are the degenerate segment [0, n).
	// inShape is the per-request input (a frame for from==0, a boundary
	// activation otherwise); outShape is the boundary activation a
	// non-tail segment emits; emitsLogits marks entries that end in the
	// classifier.
	from        int
	inShape     [3]int
	outShape    [3]int
	emitsLogits bool

	// qmu guards the intake heap; avail carries a capacity-1 wakeup
	// token — every push signals it (non-blocking), and the executor
	// re-polls the heap after every wake, so no enqueue is ever missed.
	qmu     sync.Mutex
	queue   reqQueue
	qclosed bool
	seq     uint64
	avail   chan struct{}
}

// Real is the tensor-backed execution backend. Install assembles one
// dnn.Model per distinct admitted path, aliasing refcounted shared block
// instances; Infer funnels requests into per-model batching queues that
// execute dnn.Model.ForwardBatch.
type Real struct {
	cfg RealConfig

	// mu guards lib/models/closed across Install/Close/Stats; the Infer
	// hot path reads only the atomic routes pointer.
	mu     sync.Mutex
	lib    map[string]*blockInstance
	models map[string]*modelEntry
	closed bool

	// routes maps task ID → model entry for the installed plan; swapped
	// atomically so Infer never takes mu.
	routes atomic.Pointer[map[string]*modelEntry]

	lastBatch      atomic.Int64
	batches        atomic.Int64
	requests       atomic.Int64
	quantFallbacks atomic.Int64
	shedLate       atomic.Int64
	shedQueueFull  atomic.Int64
	shedCanceled   atomic.Int64
	deadlineHits   atomic.Int64
	deadlineMisses atomic.Int64
	wg             sync.WaitGroup

	// closeCtx is canceled by Close; it bounds the exec.hang chaos point
	// so a wedged executor unwedges at shutdown.
	closeCtx    context.Context
	closeCancel context.CancelFunc

	// batchHook, when set by white-box tests before Install, runs at the
	// head of every batch execution with the batch size — the hook for
	// deterministic batch-cost injection and executor gating.
	batchHook func(n int)
}

// NewReal constructs a tensor-backed backend; every Infer fails with
// ErrNoModel until the first Install.
func NewReal(cfg RealConfig) (*Real, error) {
	if cfg.Model.BaseWidth == 0 {
		cfg.Model = dnn.DefaultResNetConfig()
	}
	if cfg.Input == [3]int{} {
		cfg.Input = [3]int{cfg.Model.InChannels, 8, 8}
	}
	if cfg.Input[0] != cfg.Model.InChannels {
		return nil, fmt.Errorf("exec: input channels %d != model channels %d", cfg.Input[0], cfg.Model.InChannels)
	}
	if cfg.Input[1] <= 0 || cfg.Input[2] <= 0 {
		return nil, fmt.Errorf("exec: non-positive input shape %v", cfg.Input)
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 8
	}
	if cfg.QuantGate == 0 {
		cfg.QuantGate = 0.02
	}
	if cfg.CalibBatch <= 0 {
		cfg.CalibBatch = 8
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 16 * cfg.BatchSize
	}
	r := &Real{
		cfg:    cfg,
		lib:    make(map[string]*blockInstance),
		models: make(map[string]*modelEntry),
	}
	r.closeCtx, r.closeCancel = context.WithCancel(context.Background())
	empty := map[string]*modelEntry{}
	r.routes.Store(&empty)
	return r, nil
}

// pathSignature keys a model entry: two assignments with the same block
// sequence share one model (and one batch queue).
func pathSignature(blocks []string) string { return strings.Join(blocks, "|") }

// segmentSignature keys a segment entry. The range is part of the key —
// the same block slice at a different path offset occupies different
// stages — but a full-range segment collapses onto the whole-path
// signature, so a split plan and a whole-path assignment of the same
// path share one entry.
func segmentSignature(blocks []string, from, to int) string {
	if from == 0 && to == len(blocks) {
		return pathSignature(blocks)
	}
	return pathSignature(blocks[from:to]) + "#" + strconv.Itoa(from) + "-" + strconv.Itoa(to)
}

// routeKey addresses an installed range in the routing table: plain
// task ID for raw-frame intake (whole paths and head segments),
// suffixed with the resume stage for mid-path segments.
func routeKey(taskID string, from int) string {
	if from == 0 {
		return taskID
	}
	return taskID + "#" + strconv.Itoa(from)
}

// pruneRatioOf parses the structured-pruning convention of catalog block
// IDs: a "/pNN" suffix means NN% of internal channels removed.
func pruneRatioOf(id string) float64 {
	i := strings.LastIndex(id, "/p")
	if i < 0 {
		return 0
	}
	n, err := strconv.Atoi(id[i+2:])
	if err != nil || n <= 0 || n >= 100 {
		return 0
	}
	return float64(n) / 100
}

// mangleRepoName maps a catalog block ID onto a repository model name
// (the repository forbids path separators).
func mangleRepoName(id string) string { return strings.ReplaceAll(id, "/", "_") }

// seedOf decorrelates the initialization of distinct block IDs sharing a
// stage (FNV-1a over the ID).
func seedOf(id string) int64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= 1099511628211
	}
	return int64(h)
}

// instantiate returns the live instance for a library key, building it
// on first reference. build runs with mu held (instantiation is part of
// the epoch swap, not the request path). The returned instance has its
// refcount untouched — retain/release manage it.
func (r *Real) instantiate(key string, stage int, build func() (*dnn.Block, int64, error)) (*blockInstance, error) {
	if inst, ok := r.lib[key]; ok {
		if inst.stage != stage {
			return nil, fmt.Errorf("exec: block %q used at stage %d and %d", key, inst.stage, stage)
		}
		return inst, nil
	}
	b, wb, err := build()
	if err != nil {
		return nil, err
	}
	inst := &blockInstance{block: b, stage: stage, weightBytes: wb}
	r.lib[key] = inst
	return inst, nil
}

// stageBlock builds one catalog block as a template stage. The precision
// suffix ("@f32"/"@i8") is stripped before resolving seed, prune ratio
// and repository weights, so precision variants of a block share the base
// block's trained weights; the precision is then instantiated on the
// finished block. A binary weight artifact, when stored for the base ID,
// is adopted wholesale — its tensors alias one decoded buffer, so the
// install copies no weights (the returned byte count is that buffer's
// resident size); the gob store is the copying fallback.
func (r *Real) stageBlock(id string, stage int) (*dnn.Block, int64, error) {
	base, prec, err := dnn.BlockIDPrecision(id)
	if err != nil {
		return nil, 0, fmt.Errorf("exec: block %q: %w", id, err)
	}
	b, err := dnn.BuildStageBlock(r.cfg.Model, id, stage, pruneRatioOf(base), seedOf(base))
	if err != nil {
		return nil, 0, fmt.Errorf("exec: block %q: %w", id, err)
	}
	var artBytes int64
	if r.cfg.Repo != nil {
		name := mangleRepoName(base)
		if m, bytes, aerr := r.cfg.Repo.LoadArtifact(name); aerr == nil &&
			len(m.Blocks) > 0 && dnn.ParamsCompatible(b, m.Blocks[0]) {
			stored := m.Blocks[0]
			stored.ID, stored.Stage = b.ID, b.Stage
			stored.Variant, stored.PruneRatio, stored.Frozen = b.Variant, b.PruneRatio, b.Frozen
			b, artBytes = stored, bytes
		} else if m, lerr := r.cfg.Repo.Load(name); lerr == nil && len(m.Blocks) > 0 {
			if err := dnn.CopyWeights(b, m.Blocks[0]); err != nil && r.cfg.Logf != nil {
				r.cfg.Logf("exec: weights for %q ignored: %v", id, err)
			}
		}
	}
	if prec != tensor.F64 {
		if err := b.SetPrecision(prec); err != nil {
			return nil, 0, fmt.Errorf("exec: block %q: %w", id, err)
		}
	}
	return b, artBytes, nil
}

// pathPrecisionOf is the precision variant a path's block IDs select
// (catalog paths are precision-uniform, so the first suffixed block
// decides).
func pathPrecisionOf(blockIDs []string) tensor.Precision {
	for _, id := range blockIDs {
		if _, p, err := dnn.BlockIDPrecision(id); err == nil && p != tensor.F64 {
			return p
		}
	}
	return tensor.F64
}

// buildEntry assembles the model for a path, resolving (and creating on
// demand) its shared block instances. The path's precision variant also
// keys the stem and classifier instances ("stem@i8", "classifier/32@i8"),
// so the whole path runs at the chosen precision while the float64 stem
// and classifier stay shareable by f64 paths. mu held.
func (r *Real) buildEntry(sig string, blockIDs []string) (*modelEntry, error) {
	pathPrec := pathPrecisionOf(blockIDs)
	suffix := ""
	if pathPrec != tensor.F64 {
		suffix = "@" + pathPrec.String()
	}
	narrow := func(b *dnn.Block) (*dnn.Block, int64, error) {
		if pathPrec != tensor.F64 {
			if err := b.SetPrecision(pathPrec); err != nil {
				return nil, 0, err
			}
		}
		return b, 0, nil
	}
	keys := make([]string, 0, len(blockIDs)+2)
	stemKey := "stem" + suffix
	stem, err := r.instantiate(stemKey, 0, func() (*dnn.Block, int64, error) {
		return narrow(dnn.BuildStemBlock(r.cfg.Model))
	})
	if err != nil {
		return nil, err
	}
	keys = append(keys, stemKey)
	stages := make([]*dnn.Block, 0, len(blockIDs))
	for i, id := range blockIDs {
		stage := min(i+1, 4)
		inst, err := r.instantiate(id, stage, func() (*dnn.Block, int64, error) {
			return r.stageBlock(id, stage)
		})
		if err != nil {
			return nil, err
		}
		keys = append(keys, id)
		stages = append(stages, inst.block)
	}
	featureDim := dnn.StageWidth(r.cfg.Model, len(blockIDs))
	clsKey := "classifier/" + strconv.Itoa(featureDim) + suffix
	cls, err := r.instantiate(clsKey, 5, func() (*dnn.Block, int64, error) {
		return narrow(dnn.BuildClassifierBlock(r.cfg.Model, featureDim))
	})
	if err != nil {
		return nil, err
	}
	keys = append(keys, clsKey)
	model, err := dnn.AssemblePathModel("exec/"+sig, stem.block, stages, cls.block)
	if err != nil {
		return nil, err
	}
	e := &modelEntry{
		sig:         sig,
		model:       model,
		keys:        keys,
		prec:        pathPrec,
		inShape:     r.cfg.Input,
		emitsLogits: true,
		queue:       reqQueue{edf: r.cfg.Sched == SchedEDF},
		avail:       make(chan struct{}, 1),
		done:        make(chan struct{}),
	}
	return e, nil
}

// buildSegmentEntry assembles the model for one stage range of a split
// path. The stem joins only the head segment and the classifier only
// the tail; mid-path segments consume and emit boundary activations
// whose shapes follow analytically from the template geometry. A
// reduced-precision segment is gated against the FULL path: the
// remaining stages are instantiated as ordinary (initially unreferenced)
// library blocks, the complete model is calibrated and accuracy-checked
// exactly as a whole-path install would, and pruneUnreferenced drops the
// temporaries afterward — so every node of a split quantized path
// derives bit-identical activation scales and demotion verdicts from the
// same deterministic calibration batch. mu held.
func (r *Real) buildSegmentEntry(seg Segment) (*modelEntry, error) {
	n := len(seg.Blocks)
	if seg.From < 0 || seg.To > n || seg.From >= seg.To {
		return nil, fmt.Errorf("exec: segment %s range [%d,%d) outside path of %d blocks",
			seg.TaskID, seg.From, seg.To, n)
	}
	sig := segmentSignature(seg.Blocks, seg.From, seg.To)
	if seg.From == 0 && seg.To == n {
		e, err := r.buildEntry(sig, seg.Blocks)
		if err != nil {
			return nil, err
		}
		if err := r.gateEntry(e); err != nil {
			return nil, err
		}
		return e, nil
	}
	pathPrec := pathPrecisionOf(seg.Blocks)
	suffix := ""
	if pathPrec != tensor.F64 {
		suffix = "@" + pathPrec.String()
	}
	narrow := func(b *dnn.Block) (*dnn.Block, int64, error) {
		if pathPrec != tensor.F64 {
			if err := b.SetPrecision(pathPrec); err != nil {
				return nil, 0, err
			}
		}
		return b, 0, nil
	}
	// Resolve every block of the path; only [From, To) joins the segment
	// model (and its key list), but the full set lets the gate calibrate
	// the complete path below.
	var keys []string
	var stem *dnn.Block
	if seg.From == 0 {
		stemKey := "stem" + suffix
		inst, err := r.instantiate(stemKey, 0, func() (*dnn.Block, int64, error) {
			return narrow(dnn.BuildStemBlock(r.cfg.Model))
		})
		if err != nil {
			return nil, err
		}
		keys = append(keys, stemKey)
		stem = inst.block
	}
	allStages := make([]*dnn.Block, 0, n)
	for i, id := range seg.Blocks {
		stage := min(i+1, 4)
		inst, err := r.instantiate(id, stage, func() (*dnn.Block, int64, error) {
			return r.stageBlock(id, stage)
		})
		if err != nil {
			return nil, err
		}
		if i >= seg.From && i < seg.To {
			keys = append(keys, id)
		}
		allStages = append(allStages, inst.block)
	}
	var cls *dnn.Block
	featureDim := dnn.StageWidth(r.cfg.Model, n)
	clsKey := "classifier/" + strconv.Itoa(featureDim) + suffix
	if seg.To == n {
		inst, err := r.instantiate(clsKey, 5, func() (*dnn.Block, int64, error) {
			return narrow(dnn.BuildClassifierBlock(r.cfg.Model, featureDim))
		})
		if err != nil {
			return nil, err
		}
		keys = append(keys, clsKey)
		cls = inst.block
	}
	if pathPrec != tensor.F64 && r.cfg.QuantGate >= 0 {
		// Gate the full path, not the slice: calibration scales are
		// per-block state, and deriving them from the whole path on every
		// node is what keeps a split quantized path bit-identical to the
		// unsplit one. The temporary full-path entry reuses gateEntry's
		// twin-compare/demote loop; its precision outcome carries over.
		fullStem := stem
		if fullStem == nil {
			inst, err := r.instantiate("stem"+suffix, 0, func() (*dnn.Block, int64, error) {
				return narrow(dnn.BuildStemBlock(r.cfg.Model))
			})
			if err != nil {
				return nil, err
			}
			fullStem = inst.block
		}
		fullCls := cls
		if fullCls == nil {
			inst, err := r.instantiate(clsKey, 5, func() (*dnn.Block, int64, error) {
				return narrow(dnn.BuildClassifierBlock(r.cfg.Model, featureDim))
			})
			if err != nil {
				return nil, err
			}
			fullCls = inst.block
		}
		fullModel, err := dnn.AssemblePathModel("gate/"+sig, fullStem, allStages, fullCls)
		if err != nil {
			return nil, err
		}
		tmp := &modelEntry{sig: pathSignature(seg.Blocks), model: fullModel, prec: pathPrec}
		if err := r.gateEntry(tmp); err != nil {
			return nil, err
		}
		pathPrec = tmp.prec
	}
	model, err := dnn.AssembleSegmentModel("exec/"+sig, stem, allStages[seg.From:seg.To], cls)
	if err != nil {
		return nil, err
	}
	e := &modelEntry{
		sig:         sig,
		model:       model,
		keys:        keys,
		prec:        pathPrec,
		from:        seg.From,
		inShape:     dnn.SegmentBoundaryShape(r.cfg.Model, r.cfg.Input, seg.From),
		emitsLogits: seg.To == n,
		queue:       reqQueue{edf: r.cfg.Sched == SchedEDF},
		avail:       make(chan struct{}, 1),
		done:        make(chan struct{}),
	}
	if seg.From == 0 {
		e.inShape = r.cfg.Input
	}
	if !e.emitsLogits {
		e.outShape = dnn.SegmentBoundaryShape(r.cfg.Model, r.cfg.Input, seg.To)
	}
	return e, nil
}

// twinModel assembles the float64 twin of a path — the same base block
// IDs resolve to the same seeds and stored weights, so the twin is the
// accuracy reference the gate compares against. Twin instances go
// through the regular library (a base block also deployed at f64 is
// shared, not duplicated) and enter it unreferenced; pruneUnreferenced
// at the end of Install drops the ones no deployed path retains. mu held.
func (r *Real) twinModel(blockIDs []string) (*dnn.Model, error) {
	stem, err := r.instantiate("stem", 0, func() (*dnn.Block, int64, error) {
		return dnn.BuildStemBlock(r.cfg.Model), 0, nil
	})
	if err != nil {
		return nil, err
	}
	stages := make([]*dnn.Block, 0, len(blockIDs))
	for i, id := range blockIDs {
		base, _, err := dnn.BlockIDPrecision(id)
		if err != nil {
			return nil, err
		}
		stage := min(i+1, 4)
		inst, err := r.instantiate(base, stage, func() (*dnn.Block, int64, error) {
			return r.stageBlock(base, stage)
		})
		if err != nil {
			return nil, err
		}
		stages = append(stages, inst.block)
	}
	featureDim := dnn.StageWidth(r.cfg.Model, len(blockIDs))
	cls, err := r.instantiate("classifier/"+strconv.Itoa(featureDim), 5, func() (*dnn.Block, int64, error) {
		return dnn.BuildClassifierBlock(r.cfg.Model, featureDim), 0, nil
	})
	if err != nil {
		return nil, err
	}
	return dnn.AssemblePathModel("twin", stem.block, stages, cls.block)
}

// gateEntry enforces the calibration accuracy gate on a newly built
// reduced-precision entry: the model's activation scales are calibrated
// on a deterministic batch, then its top-1 agreement with the float64
// twin is measured on the same batch. Disagreement above QuantGate
// demotes every block of the path one precision tier (i8→f32→f64) and
// rechecks; float64 always passes. Demotion is per-block state, so other
// installed paths sharing a demoted block run the safer kernels too.
// mu held.
func (r *Real) gateEntry(e *modelEntry) error {
	if e.prec == tensor.F64 || r.cfg.QuantGate < 0 {
		return nil
	}
	twin, err := r.twinModel(e.sigBlocks())
	if err != nil {
		return fmt.Errorf("gate %s: %w", e.sig, err)
	}
	x := dnn.CalibrationBatch(r.cfg.CalibBatch, r.cfg.Input[0], r.cfg.Input[1], r.cfg.Input[2], calibSeed)
	if err := dnn.Calibrate(e.model, x); err != nil {
		return fmt.Errorf("gate %s: calibrate: %w", e.sig, err)
	}
	for {
		delta, err := dnn.Top1Delta(e.model, twin, x)
		if err != nil {
			return fmt.Errorf("gate %s: %w", e.sig, err)
		}
		if delta <= r.cfg.QuantGate {
			if r.cfg.Logf != nil {
				r.cfg.Logf("exec: gate: path %s passes at %s (top-1 delta %.3f)", e.sig, e.prec, delta)
			}
			return nil
		}
		next := tensor.F32
		if e.prec == tensor.F32 {
			next = tensor.F64
		}
		if r.cfg.Logf != nil {
			r.cfg.Logf("exec: gate: path %s top-1 delta %.3f > %.3f at %s, falling back to %s",
				e.sig, delta, r.cfg.QuantGate, e.prec, next)
		}
		if err := e.model.SetPrecision(next); err != nil {
			return fmt.Errorf("gate %s: demote: %w", e.sig, err)
		}
		e.prec = next
		r.quantFallbacks.Add(1)
		if next == tensor.F64 {
			return nil
		}
	}
}

// sigBlocks recovers the path's block IDs from its signature.
func (e *modelEntry) sigBlocks() []string { return strings.Split(e.sig, "|") }

// Install implements Backend. The swap is warm: model entries (and the
// block instances they alias) that survive from the previous plan are
// retained untouched — their batch queues keep draining across the
// epoch boundary — while entries no surviving assignment references are
// released and their blocks' refcounts decremented (freed at zero).
// On error the previous plan stays installed.
func (r *Real) Install(plan *Plan) error {
	if plan == nil {
		return fmt.Errorf("exec: nil plan")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return ErrClosed
	}

	// Resolve the desired model set, building entries for new paths.
	desired := make(map[string]*modelEntry)
	routes := make(map[string]*modelEntry)
	var created []*modelEntry
	fail := func(err error) error {
		// Creation is side-effect free until commit except for library
		// inserts, which released() prunes below.
		for _, e := range created {
			close(e.done)
		}
		r.pruneUnreferenced(desired)
		return err
	}
	if plan.Deployment != nil && plan.Deployment.Solution != nil {
		for _, a := range plan.Deployment.Solution.Assignments {
			if !a.Admitted() {
				continue
			}
			sig := pathSignature(a.Path.Blocks)
			e, ok := desired[sig]
			if !ok {
				if e, ok = r.models[sig]; !ok {
					var err error
					e, err = r.buildEntry(sig, a.Path.Blocks)
					if err != nil {
						return fail(fmt.Errorf("exec: install epoch %d: %w", plan.Epoch, err))
					}
					created = append(created, e)
					if err := r.gateEntry(e); err != nil {
						return fail(fmt.Errorf("exec: install epoch %d: %w", plan.Epoch, err))
					}
				}
				e.refs = 0
				desired[sig] = e
			}
			e.refs++
			routes[a.TaskID] = e
		}
	}
	for _, seg := range plan.Segments {
		if n := len(seg.Blocks); seg.From < 0 || seg.To > n || seg.From >= seg.To {
			return fail(fmt.Errorf("exec: install epoch %d: segment %s range [%d,%d) outside path of %d blocks",
				plan.Epoch, seg.TaskID, seg.From, seg.To, n))
		}
		sig := segmentSignature(seg.Blocks, seg.From, seg.To)
		e, ok := desired[sig]
		if !ok {
			if e, ok = r.models[sig]; !ok {
				var err error
				e, err = r.buildSegmentEntry(seg)
				if err != nil {
					return fail(fmt.Errorf("exec: install epoch %d: %w", plan.Epoch, err))
				}
				created = append(created, e)
			}
			e.refs = 0
			desired[sig] = e
		}
		e.refs++
		routes[routeKey(seg.TaskID, seg.From)] = e
	}

	// Commit: retire entries absent from the desired set, start the
	// executors of the created ones, swap the routing table.
	for sig, e := range r.models {
		if _, keep := desired[sig]; !keep {
			for _, k := range e.keys {
				if inst := r.lib[k]; inst != nil {
					inst.refs--
				}
			}
			close(e.done)
			delete(r.models, sig)
		}
	}
	for _, e := range created {
		for _, k := range e.keys {
			r.lib[k].refs++
		}
		r.models[e.sig] = e
		r.wg.Add(1)
		go r.serveModel(e)
	}
	r.pruneUnreferenced(desired)
	r.routes.Store(&routes)
	if r.cfg.Logf != nil && len(created) > 0 {
		label := ""
		if plan.Node != "" {
			label = " node=" + plan.Node
		}
		r.cfg.Logf("exec: install epoch %d%s: %d models (%d built), %d shared blocks",
			plan.Epoch, label, len(r.models), len(created), len(r.lib))
	}
	return nil
}

// pruneUnreferenced drops zero-ref library instances (including ones
// speculatively built by a failed Install). mu held.
func (r *Real) pruneUnreferenced(map[string]*modelEntry) {
	for k, inst := range r.lib {
		if inst.refs <= 0 {
			delete(r.lib, k)
		}
	}
}

// Infer implements Backend: the request joins its model's batching
// queue in EDF (or FIFO) order and blocks until the batch it lands in
// executes. Requests already past their deadline are shed before they
// touch the queue (ErrLate); a full queue sheds its latest-deadline
// waiter (ErrQueueFull). The measured latency spans enqueue to result —
// queueing and the forward pass.
func (r *Real) Infer(ctx context.Context, req Request) (Output, error) {
	e := (*r.routes.Load())[routeKey(req.TaskID, req.FromStage)]
	if e == nil {
		return Output{}, fmt.Errorf("%w: %q (stage %d)", ErrNoModel, req.TaskID, req.FromStage)
	}
	want := e.inShape[0] * e.inShape[1] * e.inShape[2]
	if len(req.Input) != want {
		return Output{}, fmt.Errorf("%w: got %d values, model wants %d (%dx%dx%d)",
			ErrBadInput, len(req.Input), want, e.inShape[0], e.inShape[1], e.inShape[2])
	}
	var dl int64
	if !req.Deadline.IsZero() {
		dl = req.Deadline.UnixNano()
	}
	if r.cfg.Sched == SchedEDF && dl != 0 && time.Now().UnixNano() >= dl {
		r.shedLate.Add(1)
		r.deadlineMisses.Add(1)
		return Output{}, ErrLate
	}
	q := &inferReq{ctx: ctx, input: req.Input, deadline: dl, resp: make(chan inferResp, 1)}
	start := time.Now()
	if err := r.enqueue(e, q); err != nil {
		return Output{}, err
	}
	select {
	case resp := <-q.resp:
		if resp.err != nil {
			return Output{}, resp.err
		}
		if !e.emitsLogits {
			return Output{
				Activation: resp.logits,
				ActShape:   e.outShape,
				Argmax:     -1,
				BatchSize:  resp.batch,
				Latency:    time.Since(start),
			}, nil
		}
		argmax := 0
		for i, v := range resp.logits {
			if v > resp.logits[argmax] {
				argmax = i
			}
		}
		return Output{
			Logits:    resp.logits,
			Argmax:    argmax,
			BatchSize: resp.batch,
			Latency:   time.Since(start),
		}, nil
	case <-ctx.Done():
		// The request stays queued (or in flight); the executor detects
		// the cancellation, skips or drops its result, and counts it
		// under ShedCanceled (resp is buffered, nothing blocks).
		return Output{}, ctx.Err()
	}
}

// enqueue pushes a request onto its entry's intake heap, applying the
// bounded-queue backpressure policy first: when the queue is full, the
// waiter that sorts last (latest deadline — under pure FIFO, the newest
// arrival) is shed with ErrQueueFull rather than the newest arrival
// being rejected outright, so an urgent late-burst request can displace
// a leisurely one.
func (r *Real) enqueue(e *modelEntry, q *inferReq) error {
	e.qmu.Lock()
	if e.qclosed {
		e.qmu.Unlock()
		return ErrReleased
	}
	q.seq = e.seq
	e.seq++
	var evicted *inferReq
	if r.cfg.QueueDepth > 0 && len(e.queue.items) >= r.cfg.QueueDepth {
		worst := 0
		for i := 1; i < len(e.queue.items); i++ {
			if lessReq(e.queue.items[worst], e.queue.items[i], e.queue.edf) {
				worst = i
			}
		}
		if !lessReq(q, e.queue.items[worst], e.queue.edf) {
			// The incoming request is the least worth serving: shed it.
			e.qmu.Unlock()
			r.shedQueueFull.Add(1)
			if q.deadline != 0 {
				r.deadlineMisses.Add(1)
			}
			return ErrQueueFull
		}
		evicted = e.queue.items[worst]
		heap.Remove(&e.queue, worst)
	}
	heap.Push(&e.queue, q)
	e.qmu.Unlock()
	if evicted != nil {
		r.shedQueueFull.Add(1)
		if evicted.deadline != 0 {
			r.deadlineMisses.Add(1)
		}
		evicted.resp <- inferResp{err: ErrQueueFull}
	}
	select {
	case e.avail <- struct{}{}:
	default:
	}
	return nil
}

// tryPop pops the most urgent waiter, shedding canceled and (under EDF)
// already-late requests on the way: neither enters a batch.
func (r *Real) tryPop(e *modelEntry) *inferReq {
	e.qmu.Lock()
	defer e.qmu.Unlock()
	for e.queue.Len() > 0 {
		q := heap.Pop(&e.queue).(*inferReq)
		if q.ctx != nil && q.ctx.Err() != nil {
			r.shedCanceled.Add(1)
			q.resp <- inferResp{err: q.ctx.Err()}
			continue
		}
		if e.queue.edf && q.deadline != 0 && time.Now().UnixNano() >= q.deadline {
			r.shedLate.Add(1)
			r.deadlineMisses.Add(1)
			q.resp <- inferResp{err: ErrLate}
			continue
		}
		return q
	}
	return nil
}

// nextReq blocks until a serveable request arrives or the entry is
// released (nil). Release wins over a non-empty queue: the remaining
// waiters belong to drain, which answers them ErrReleased.
func (r *Real) nextReq(e *modelEntry) *inferReq {
	for {
		select {
		case <-e.done:
			return nil
		default:
		}
		if q := r.tryPop(e); q != nil {
			return q
		}
		select {
		case <-e.avail:
		case <-e.done:
			return nil
		}
	}
}

// serveModel is one entry's batching executor. It is work-conserving:
// it takes the most urgent waiter, adds whatever else is queued now (in
// intake order, up to BatchSize) and runs the batch at once through one
// ForwardBatch call. Requests that arrive during a forward pass queue up
// and form the next batch, so batch size grows with load while an idle
// executor never waits on a partial batch.
func (r *Real) serveModel(e *modelEntry) {
	defer r.wg.Done()
	for {
		first := r.nextReq(e)
		if first == nil {
			r.drain(e)
			return
		}
		batch := []*inferReq{first}
		for len(batch) < r.cfg.BatchSize {
			q := r.tryPop(e)
			if q == nil {
				break
			}
			batch = append(batch, q)
		}
		r.runBatch(e, batch)
	}
}

// drain answers queued requests of a released entry with ErrReleased and
// closes the queue against further enqueues.
func (r *Real) drain(e *modelEntry) {
	e.qmu.Lock()
	e.qclosed = true
	items := e.queue.items
	e.queue.items = nil
	e.qmu.Unlock()
	for _, q := range items {
		q.resp <- inferResp{err: ErrReleased}
	}
}

// runBatch assembles the batch tensor, executes the forward pass and
// distributes the per-request logit rows, accounting deadline outcomes
// at completion time. Requests whose caller disconnected mid-flight
// still execute (they are already in the batch) but their result copy
// is skipped and they count under ShedCanceled.
func (r *Real) runBatch(e *modelEntry, batch []*inferReq) {
	n := len(batch)
	if r.cfg.Faults != nil {
		// exec.slow stalls then proceeds; exec.hang blocks until its rule
		// or backend close unwedges it.
		_ = r.cfg.Faults.Hit(context.Background(), faultinject.PointExecSlow)
		_ = r.cfg.Faults.Hit(r.closeCtx, faultinject.PointExecHang)
	}
	if r.batchHook != nil {
		r.batchHook(n)
	}
	c, h, w := e.inShape[0], e.inShape[1], e.inShape[2]
	per := c * h * w
	x := tensor.Rent(n, c, h, w)
	for i, q := range batch {
		copy(x.Data()[i*per:(i+1)*per], q.input)
	}
	y, err := e.model.ForwardBatch(x)
	tensor.Release(x)
	r.lastBatch.Store(int64(n))
	r.batches.Add(1)
	r.requests.Add(int64(n))
	if err != nil {
		for _, q := range batch {
			q.resp <- inferResp{err: fmt.Errorf("exec: forward: %w", err)}
		}
		return
	}
	now := time.Now().UnixNano()
	outPer := y.Len() / n
	for i, q := range batch {
		if q.ctx != nil && q.ctx.Err() != nil {
			r.shedCanceled.Add(1)
			q.resp <- inferResp{err: q.ctx.Err()}
			continue
		}
		if q.deadline != 0 {
			if now <= q.deadline {
				r.deadlineHits.Add(1)
			} else {
				r.deadlineMisses.Add(1)
			}
		}
		logits := make([]float64, outPer)
		copy(logits, y.Data()[i*outPer:(i+1)*outPer])
		q.resp <- inferResp{logits: logits, batch: n}
	}
	tensor.Release(y)
}

// InputShape implements Backend.
func (r *Real) InputShape() []int {
	return []int{r.cfg.Input[0], r.cfg.Input[1], r.cfg.Input[2]}
}

// Stats implements Backend.
func (r *Real) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	depth := 0
	precisions := make(map[string]string, len(r.models))
	var slack map[string]time.Duration
	now := time.Now().UnixNano()
	for sig, e := range r.models {
		e.qmu.Lock()
		depth += e.queue.Len()
		var minDL int64
		for _, q := range e.queue.items {
			if q.deadline != 0 && (minDL == 0 || q.deadline < minDL) {
				minDL = q.deadline
			}
		}
		e.qmu.Unlock()
		if minDL != 0 {
			if slack == nil {
				slack = make(map[string]time.Duration)
			}
			slack[sig] = time.Duration(minDL - now)
		}
		precisions[sig] = e.prec.String()
	}
	var weightBytes int64
	for _, inst := range r.lib {
		weightBytes += inst.weightBytes
	}
	return Stats{
		Models:         len(r.models),
		Blocks:         len(r.lib),
		QueueDepth:     depth,
		LastBatchSize:  int(r.lastBatch.Load()),
		Batches:        r.batches.Load(),
		Requests:       r.requests.Load(),
		ShedLate:       r.shedLate.Load(),
		ShedQueueFull:  r.shedQueueFull.Load(),
		ShedCanceled:   r.shedCanceled.Load(),
		DeadlineHits:   r.deadlineHits.Load(),
		DeadlineMisses: r.deadlineMisses.Load(),
		QueueSlack:     slack,
		QuantFallbacks: r.quantFallbacks.Load(),
		WeightBytes:    weightBytes,
		PathPrecisions: precisions,
	}
}

// BlockRefs snapshots the shared-block refcounts (library key → number
// of live models aliasing the instance) — the assertion surface for the
// instantiated-exactly-once property.
func (r *Real) BlockRefs() map[string]int {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int, len(r.lib))
	for k, inst := range r.lib {
		out[k] = inst.refs
	}
	return out
}

// SharedBlock returns the live instance for a library key (nil when the
// block is not deployed) — lets tests assert pointer identity across
// tasks and epochs.
func (r *Real) SharedBlock(key string) *dnn.Block {
	r.mu.Lock()
	defer r.mu.Unlock()
	if inst, ok := r.lib[key]; ok {
		return inst.block
	}
	return nil
}

// Close implements Backend: releases every model and waits for the
// batching executors to exit.
func (r *Real) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	for sig, e := range r.models {
		close(e.done)
		delete(r.models, sig)
	}
	r.lib = map[string]*blockInstance{}
	empty := map[string]*modelEntry{}
	r.routes.Store(&empty)
	r.mu.Unlock()
	r.closeCancel()
	r.wg.Wait()
}
